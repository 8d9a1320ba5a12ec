"""The all-pairs KS, WD and PSI kernels against their oracles.

The merged-rank KS kernel is checked against its two-branch oracle
(``tests/ks_reference.py``), the WD and PSI kernels against the
full-tensor code they replaced (``tests/matrix_reference.py``). Each
pair runs the same integer counts and float operations, so every
comparison here is exact (``np.array_equal``): over random, tie-heavy,
constant and singleton inputs, and through a whole ``MoRER.fit``. A
tracemalloc gate holds each kernel to the memory its design allows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KolmogorovSmirnovTest,
    MoRER,
    PopulationStabilityTest,
    ProblemSignature,
    WassersteinTest,
)
from tests.conftest import make_problem, make_regime_problems
from tests.ks_reference import two_branch_similarity_matrix
from tests.matrix_reference import (
    kernel_memory_bound,
    psi_similarity_matrix,
    traced_peak,
    wasserstein_similarity_matrix,
)

#: Test -> its kernel's class and all-pairs oracle.
ORACLES = {
    "ks": (KolmogorovSmirnovTest, two_branch_similarity_matrix),
    "wd": (WassersteinTest, wasserstein_similarity_matrix),
    "psi": (PopulationStabilityTest, psi_similarity_matrix),
}
TESTS = sorted(ORACLES)


@st.composite
def problem_sets(draw):
    """Feature matrices of 2–40 problems with 1–60 samples each.

    Sizes are all equal or mixed; values are continuous or rounded to
    a few decimals (heavy ties); some columns, or whole problems, are
    constant (a pair whose features are all constant takes the
    uniform-weight fallback)."""
    n_problems = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 6))
    equal_sizes = draw(st.booleans())
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    constant_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(rng.integers(1, 61))
    matrices = []
    for _ in range(n_problems):
        n_samples = size if equal_sizes else int(rng.integers(1, 61))
        matrix = rng.random((n_samples, n_features))
        if decimals is not None:
            matrix = np.round(matrix, decimals)
        constant = rng.random(n_features) < constant_share
        matrix[:, constant] = rng.choice([0.0, 0.5, 1.0])
        matrices.append(matrix)
    return matrices


def _both_kernels(matrices, name, budget=None):
    """The kernel's and the oracle's matrices; ``budget`` overrides the
    kernel's block budgets (1: one-row fold blocks and, for KS, one
    walk per feature)."""
    test_class, reference = ORACLES[name]
    test = test_class()
    if budget is not None:
        test._BLOCK_ELEMENTS = budget
        test._WALK_ELEMENTS = budget
    # Fresh signatures per kernel: neither may lean on the other's
    # lazily cached statistics.
    kernel = test.signature_similarity_matrix(
        [ProblemSignature(m) for m in matrices]
    )
    oracle = reference(test, [ProblemSignature(m) for m in matrices])
    return kernel, oracle


@settings(max_examples=60, deadline=None)
@given(problem_sets(), st.sampled_from([None, 1]))
@pytest.mark.parametrize("name", TESTS)
def test_all_pairs_kernels_equal_oracles_exactly(name, matrices, budget):
    kernel, oracle = _both_kernels(matrices, name, budget)
    assert np.array_equal(kernel, oracle)


def _edge_cases():
    rng = np.random.default_rng(3)
    return {
        "two problems": [rng.random((n, 4)) for n in (5, 9)],
        "two equal": [np.round(rng.random((6, 3)), 1) for _ in range(2)],
        "singletons": [rng.random((1, 4)) for _ in range(5)],
        "one singleton": [rng.random((n, 3)) for n in (1, 7, 7, 30)],
        "unit interval ends": [
            rng.choice([0.0, 1.0], (n, 2)) for n in (3, 4, 9)
        ],
        "all constant": [np.full((n, 3), 0.5) for n in (2, 5, 5)],
        "equal sizes": [np.round(rng.random((12, 5)), 1) for _ in range(8)],
    }


@pytest.mark.parametrize("name", TESTS)
def test_all_pairs_kernels_edge_cases_equal_oracles_exactly(name):
    for case, matrices in _edge_cases().items():
        kernel, oracle = _both_kernels(matrices, name)
        assert np.array_equal(kernel, oracle), case


@pytest.mark.parametrize("name", TESTS)
def test_kernels_equal_oracles_across_block_sizes(name):
    """Rows fold in blocks of ``_BLOCK_ELEMENTS`` and KS walks all
    features at once only when they fit ``_WALK_ELEMENTS``: one-row
    blocks with one feature per walk, and one block with every feature
    in one walk, give the oracle's bits."""
    matrices = _mixed_size_family_matrices()
    for budget in (1, 10**9):
        kernel, oracle = _both_kernels(matrices, name, budget)
        assert np.array_equal(kernel, oracle), budget
        equal_sizes = [m[:30] for m in matrices]
        kernel, oracle = _both_kernels(equal_sizes, name, budget)
        assert np.array_equal(kernel, oracle), budget


@pytest.mark.parametrize("name", TESTS)
def test_kernels_stay_within_their_memory_bound(name):
    """On a 160-problem regime set shaped like the benchmark's ``ingest``
    fit, each kernel's traced peak stays within the bound its design
    gives (:func:`tests.matrix_reference.kernel_memory_bound`): for KS
    one gap array, one feature's walk and one fold block. The
    full-tensor kernels peaked at 11.2 (KS), 6.8 (WD) and 6.9 MB (PSI)
    here, against bounds of about 2.8, 3.0 and 4.0 MB."""
    matrices = [p.features for p in make_regime_problems(160, seed=160)]
    test = ORACLES[name][0]()
    signatures = [ProblemSignature(m) for m in matrices]
    # Warm: the signatures' statistics outlive the call, so they are
    # not the kernel's working memory.
    test.signature_similarity_matrix(signatures)
    matrix, peak = traced_peak(test.signature_similarity_matrix, signatures)
    assert peak <= kernel_memory_bound(test, signatures), peak
    _, oracle = _both_kernels(matrices, name)
    assert np.array_equal(matrix, oracle)


def _mixed_size_family():
    """Two distribution regimes over a spread of problem sizes, so the
    oracle runs its per-pair (mixed-size) branch."""
    sizes = [30, 47, 61, 75, 90, 104, 118, 133, 150, 36, 82, 126]
    return [
        make_problem(
            source_a=f"S{2 * i}", source_b=f"S{2 * i + 1}", n=n,
            shift=0.3 * (i % 2), seed=i,
        )
        for i, n in enumerate(sizes)
    ]


def _mixed_size_family_matrices():
    return [problem.features for problem in _mixed_size_family()]


def test_fit_is_identical_under_the_oracle_kernel(monkeypatch):
    """Fit twin: ``MoRER.fit`` with the oracle patched in builds the
    same graph, clusters, labels spent and RNG state."""
    problems = _mixed_size_family()
    live = MoRER(random_state=0).fit(problems)
    calls = []

    def oracle(test, signatures):
        calls.append(len(signatures))
        return two_branch_similarity_matrix(test, signatures)

    monkeypatch.setattr(
        KolmogorovSmirnovTest, "signature_similarity_matrix", oracle
    )
    twin = MoRER(random_state=0).fit(problems)
    assert calls == [len(problems)]
    live_meta, live_arrays = live.problem_graph.export_state()
    twin_meta, twin_arrays = twin.problem_graph.export_state()
    assert live_meta == twin_meta
    assert live_arrays.keys() == twin_arrays.keys()
    for name, array in live_arrays.items():
        assert np.array_equal(array, twin_arrays[name]), name
    assert live.clusters_ == twin.clusters_
    assert live.total_labels_spent() == twin.total_labels_spent()
    assert live._rng.bit_generator.state == twin._rng.bit_generator.state
