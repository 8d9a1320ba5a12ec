"""The merged-rank KS all-pairs kernel against its two-branch oracle.

Both compute the same integer counts and float operations, so every
comparison here is exact (``np.array_equal``): over random, tie-heavy,
constant and singleton inputs, and through a whole ``MoRER.fit``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KolmogorovSmirnovTest, MoRER, ProblemSignature
from tests.conftest import make_problem
from tests.ks_reference import two_branch_similarity_matrix


@st.composite
def problem_sets(draw):
    """Feature matrices of 3–40 problems with 1–60 samples each.

    Sizes are all equal or mixed; values are continuous or rounded to
    a few decimals (heavy ties); some columns, or whole problems, are
    constant."""
    n_problems = draw(st.integers(3, 40))
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


def _both_kernels(matrices):
    test = KolmogorovSmirnovTest()
    # Fresh signatures per kernel: neither may lean on the other's
    # lazily cached statistics.
    merged = test.signature_similarity_matrix(
        [ProblemSignature(m) for m in matrices]
    )
    oracle = two_branch_similarity_matrix(
        test, [ProblemSignature(m) for m in matrices]
    )
    return merged, oracle


@settings(max_examples=60, deadline=None)
@given(problem_sets())
def test_merged_rank_kernel_equals_oracle_exactly(matrices):
    merged, oracle = _both_kernels(matrices)
    assert np.array_equal(merged, oracle)


def test_merged_rank_kernel_edge_cases_equal_oracle_exactly():
    rng = np.random.default_rng(3)
    cases = {
        "singletons": [rng.random((1, 4)) for _ in range(5)],
        "one singleton": [rng.random((n, 3)) for n in (1, 7, 7, 30)],
        "unit interval ends": [
            rng.choice([0.0, 1.0], (n, 2)) for n in (3, 4, 9)
        ],
        "all constant": [np.full((n, 3), 0.5) for n in (2, 5, 5)],
        "equal sizes": [np.round(rng.random((12, 5)), 1) for _ in range(8)],
    }
    for name, matrices in cases.items():
        merged, oracle = _both_kernels(matrices)
        assert np.array_equal(merged, oracle), name


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
