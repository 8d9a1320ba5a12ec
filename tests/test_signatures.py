"""Signature subsystem tests: raw/fast equivalence + cache behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClassifierTwoSampleTest,
    ERProblemGraph,
    KolmogorovSmirnovTest,
    ModelRepository,
    MoRER,
    ProblemSignature,
    SignatureStore,
    make_distribution_test,
)
from repro.ml import RandomForestClassifier
from tests.conftest import make_problem, make_problem_family

TOLERANCE = 1e-9


def _equivalence_cases():
    rng = np.random.default_rng(7)
    return {
        "random": (rng.random((80, 5)), rng.random((120, 5))),
        "shifted": (
            np.clip(rng.normal(0.3, 0.1, (60, 6)), 0, 1),
            np.clip(rng.normal(0.7, 0.1, (90, 6)), 0, 1),
        ),
        "constant": (np.full((50, 3), 0.5), np.full((70, 3), 0.5)),
        "tiny": (rng.random((1, 4)), rng.random((2, 4))),
        "heavy-ties": (
            np.round(rng.random((100, 4)), 1),
            np.round(rng.random((130, 4)), 1),
        ),
        "mixed-constant-feature": (
            np.column_stack([np.full(40, 0.5), rng.random(40)]),
            np.column_stack([np.full(55, 0.5), rng.random(55)]),
        ),
        "boundary-values": (
            np.clip(np.round(rng.random((60, 3)) * 2 - 0.5, 2), 0, 1),
            np.clip(np.round(rng.random((80, 3)) * 2 - 0.5, 2), 0, 1),
        ),
    }


CASES = _equivalence_cases()
#: C2ST needs enough samples per class for stratified 2-fold CV.
C2ST_SKIP = {"tiny"}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", ["ks", "wd", "psi", "c2st"])
def test_signature_similarity_matches_raw(name, case):
    if name == "c2st" and case in C2ST_SKIP:
        pytest.skip("C2ST needs larger samples for cross-validation")
    a, b = CASES[case]
    test = make_distribution_test(name)
    raw = test.problem_similarity(a, b)
    fast = test.signature_similarity(ProblemSignature(a), ProblemSignature(b))
    assert abs(raw - fast) < TOLERANCE


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_signature_equivalence_property(seed):
    """Property: signature and raw paths agree for random shapes/data."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 8))
    a = rng.random((int(rng.integers(1, 60)), n_features))
    b = rng.random((int(rng.integers(1, 60)), n_features))
    sig_a, sig_b = ProblemSignature(a), ProblemSignature(b)
    for name in ("ks", "wd", "psi"):
        test = make_distribution_test(name)
        raw = test.problem_similarity(a, b)
        fast = test.signature_similarity(sig_a, sig_b)
        assert abs(raw - fast) < TOLERANCE, name


def test_signature_feature_space_mismatch_rejected():
    test = KolmogorovSmirnovTest()
    with pytest.raises(ValueError, match="feature space"):
        test.signature_similarity(
            ProblemSignature(np.ones((5, 3)) * 0.5),
            ProblemSignature(np.ones((5, 4)) * 0.5),
        )


def test_signature_validation():
    with pytest.raises(ValueError, match="2-d"):
        ProblemSignature(np.ones(3))
    with pytest.raises(ValueError, match="at least one"):
        ProblemSignature(np.empty((0, 2)))
    # Out-of-range values would silently break the offset-flattened
    # searchsorted kernels, so they must be rejected loudly.
    for bad in (np.full((3, 2), 1.5), np.full((3, 2), -0.5),
                np.array([[0.5, np.nan]])):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProblemSignature(bad)


def test_signature_accepts_problem_objects():
    problem = make_problem()
    signature = ProblemSignature(problem)
    assert signature.features is problem.features
    assert signature.n_samples == problem.n_pairs


def test_signature_histogram_matches_numpy():
    rng = np.random.default_rng(3)
    features = rng.random((150, 4))
    signature = ProblemSignature(features)
    for n_bins in (2, 10, 100):
        counts = signature.histogram(n_bins)
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        for f in range(4):
            reference, _ = np.histogram(
                np.clip(features[:, f], 0, 1), bins=edges
            )
            assert np.array_equal(counts[f], reference)
        # Memoized: second call returns the identical array object.
        assert signature.histogram(n_bins) is counts


def test_pairwise_similarities_matches_pair_loop():
    problems = make_problem_family(5)
    test = make_distribution_test("ks")
    signatures = [ProblemSignature(p) for p in problems]
    matrix = test.signature_similarity_matrix(signatures)
    assert matrix.shape == (5, 5)
    assert np.array_equal(matrix, matrix.T)
    for i in range(5):
        for j in range(i):
            raw = test.problem_similarity(
                problems[i].features, problems[j].features
            )
            assert abs(matrix[i, j] - raw) < TOLERANCE


def test_c2st_one_vs_many_keeps_the_probe_first():
    """C2ST's one-vs-many kernel scores each candidate in the
    ``sim_p(probe, candidate)`` orientation, like its pair path."""
    problems = make_problem_family(3)
    test = make_distribution_test("c2st")
    signatures = [ProblemSignature(p) for p in problems]
    for i, probe in enumerate(signatures):
        others = signatures[:i] + signatures[i + 1:]
        values = test.signature_similarity_many(probe, others)
        assert values.shape == (len(others),)
        for value, other in zip(values, others):
            raw = test.problem_similarity(probe.features, other.features)
            assert value == raw
    assert test.signature_similarity_many(signatures[0], []).shape == (0,)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_wd_psi_matrix_equivalence_property(seed):
    """Property: the batched WD/PSI matrix kernels agree with per-pair
    ``signature_similarity`` below 1e-9, mirroring the KS suite.

    Covers both the equal-size fast branch (quantile form for WD,
    stacked proportions for PSI) and the mixed-size fallback.
    """
    rng = np.random.default_rng(seed)
    n_problems = int(rng.integers(3, 7))
    n_features = int(rng.integers(1, 5))
    uniform = bool(rng.integers(0, 2))
    base = int(rng.integers(5, 40))
    matrices = [
        rng.random((base if uniform else int(rng.integers(2, 40)),
                    n_features))
        for _ in range(n_problems)
    ]
    if rng.integers(0, 2):  # exercise the constant-weight fallback
        matrices[0] = np.full_like(matrices[0], 0.5)
    signatures = [ProblemSignature(m) for m in matrices]
    for name in ("wd", "psi"):
        test = make_distribution_test(name)
        matrix = test.signature_similarity_matrix(signatures)
        assert np.array_equal(matrix, matrix.T), name
        for i in range(n_problems):
            assert matrix[i, i] == 1.0
            for j in range(i):
                raw = test.signature_similarity(
                    signatures[i], signatures[j]
                )
                assert abs(matrix[i, j] - raw) < TOLERANCE, (name, i, j)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_signature_similarity_many_equivalence_property(seed):
    """Property: the one-vs-many search kernels agree with per-pair
    ``signature_similarity`` below 1e-9 for KS, WD and PSI."""
    rng = np.random.default_rng(seed)
    n_candidates = int(rng.integers(1, 6))
    n_features = int(rng.integers(1, 5))
    uniform = bool(rng.integers(0, 2))
    base = int(rng.integers(5, 40))
    probe = ProblemSignature(rng.random((base, n_features)))
    candidates = [
        ProblemSignature(
            rng.random((base if uniform else int(rng.integers(2, 40)),
                        n_features))
        )
        for _ in range(n_candidates)
    ]
    for name in ("ks", "wd", "psi"):
        test = make_distribution_test(name)
        many = test.signature_similarity_many(probe, candidates)
        assert many.shape == (n_candidates,)
        for j, candidate in enumerate(candidates):
            raw = test.signature_similarity(probe, candidate)
            assert abs(many[j] - raw) < TOLERANCE, (name, j)


def test_wd_matrix_mixed_sizes_uses_grid_batch_not_pair_fallback():
    """The mixed-sample-size branch must run the merged-quantile-grid
    batch (one block per size-group pair), never the old per-pair
    integration, and stay pinned to the pair path below 1e-9."""
    rng = np.random.default_rng(17)
    sizes = [1, 2, 9, 30, 30, 47, 9]
    signatures = [ProblemSignature(rng.random((s, 3))) for s in sizes]
    test = make_distribution_test("wd")
    pair_calls = []
    original = test._signature_feature_similarities

    def spy(sig_a, sig_b):
        pair_calls.append((sig_a.n_samples, sig_b.n_samples))
        return original(sig_a, sig_b)

    test._signature_feature_similarities = spy
    matrix = test.signature_similarity_matrix(signatures)
    many = test.signature_similarity_many(signatures[0], signatures[1:])
    assert pair_calls == []
    for i in range(len(sizes)):
        for j in range(i):
            raw = test.signature_similarity(signatures[i], signatures[j])
            assert abs(matrix[i, j] - raw) < TOLERANCE, (i, j)
    for j, signature in enumerate(signatures[1:]):
        raw = test.signature_similarity(signatures[0], signature)
        assert abs(many[j] - raw) < TOLERANCE, j


@pytest.mark.parametrize("name", ["wd", "psi"])
def test_wd_psi_matrix_rejects_feature_space_mismatch(name):
    test = make_distribution_test(name)
    signatures = [
        ProblemSignature(np.full((5, 3), 0.5)),
        ProblemSignature(np.full((5, 4), 0.5)),
    ]
    with pytest.raises(ValueError, match="feature space"):
        test.signature_similarity_matrix(signatures)
    with pytest.raises(ValueError, match="feature space"):
        test.signature_similarity_many(signatures[0], signatures[1:])


@pytest.mark.parametrize("name", ["wd", "psi"])
def test_graph_build_uses_batched_wd_psi(name):
    """The graph's fit-set build must route WD/PSI through their
    all-pairs matrix kernels (KS has one too)."""
    problems = make_problem_family(5)
    test = make_distribution_test(name)
    calls = []
    original = test.signature_similarity_matrix

    def spy(sigs):
        calls.append(len(sigs))
        return original(sigs)

    test.signature_similarity_matrix = spy
    graph = ERProblemGraph.build(problems, test)
    assert calls == [5]
    for i in range(5):
        for j in range(i):
            raw = test.problem_similarity(
                problems[i].features, problems[j].features
            )
            assert abs(
                graph.similarity(problems[i].key, problems[j].key) - raw
            ) < TOLERANCE


def test_ks_matrix_handles_unequal_sizes_and_constant_features():
    """The batched KS kernel must match the pair path on unequal sizes
    and on constant features (the uniform-weight fallback)."""
    rng = np.random.default_rng(11)
    matrices = [
        rng.random((30, 3)),
        rng.random((47, 3)),
        np.full((12, 3), 0.5),          # constant: uniform-weight fallback
        np.round(rng.random((60, 3)), 1),
        np.full((25, 3), 0.5),          # second constant problem
    ]
    test = make_distribution_test("ks")
    signatures = [ProblemSignature(m) for m in matrices]
    matrix = test.signature_similarity_matrix(signatures)
    for i in range(len(matrices)):
        assert matrix[i, i] == 1.0
        for j in range(i):
            raw = test.problem_similarity(matrices[i], matrices[j])
            assert abs(matrix[i, j] - raw) < TOLERANCE
    mismatched = signatures + [ProblemSignature(rng.random((10, 5)))]
    with pytest.raises(ValueError, match="feature space"):
        test.signature_similarity_matrix(mismatched)


# -- signature store ---------------------------------------------------------------


def test_signature_store_reuses_identical_features():
    store = SignatureStore(max_size=4)
    problem = make_problem()
    first = store.signature(problem.key, problem.features)
    second = store.signature(problem.key, problem.features)
    assert first is second
    assert len(store) == 1


def test_signature_store_recomputes_on_changed_features():
    store = SignatureStore(max_size=4)
    key = ("A", "B")
    rng = np.random.default_rng(0)
    first = store.signature(key, rng.random((10, 2)))
    replacement = rng.random((10, 2))
    second = store.signature(key, replacement)
    assert second is not first
    assert second.features is replacement


def test_signature_store_lru_eviction():
    store = SignatureStore(max_size=2)
    rng = np.random.default_rng(1)
    matrices = {k: rng.random((5, 2)) for k in "abc"}
    store.signature("a", matrices["a"])
    store.signature("b", matrices["b"])
    store.signature("a", matrices["a"])  # touch: "b" is now oldest
    store.signature("c", matrices["c"])
    assert "a" in store and "c" in store
    assert "b" not in store


def test_signature_store_needs_room_for_one_signature():
    with pytest.raises(ValueError, match="max_size"):
        SignatureStore(max_size=0)


# -- graph integration -------------------------------------------------------------


class _CountingKS(KolmogorovSmirnovTest):
    """KS test that counts signature-path pair evaluations, whichever
    kernel (per-pair, one-vs-many or all-pairs matrix) runs them."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.matrix_calls = 0

    def signature_similarity(self, signature_a, signature_b):
        self.calls += 1
        return super().signature_similarity(signature_a, signature_b)

    def signature_similarity_many(self, probe, signatures):
        signatures = list(signatures)
        self.calls += len(signatures)
        return super().signature_similarity_many(probe, signatures)

    def signature_similarity_matrix(self, signatures):
        self.calls += len(signatures) * (len(signatures) - 1) // 2
        self.matrix_calls += 1
        return super().signature_similarity_matrix(signatures)


def _raw_edge(test, problem_a, problem_b):
    """The edge weight the raw §4.2 test gives a pair (0.0 when the
    similarity is not above the default ``min_similarity``)."""
    similarity = test.problem_similarity(problem_a.features, problem_b.features)
    return similarity if similarity > 0.0 else 0.0


@pytest.mark.parametrize("name", ["ks", "wd", "psi"])
def test_graph_build_matches_naive_path(name):
    problems = make_problem_family(6)
    graph = ERProblemGraph.build(problems, name)
    test = make_distribution_test(name)
    deviations = [
        abs(
            graph.similarity(problems[i].key, problems[j].key)
            - _raw_edge(test, problems[i], problems[j])
        )
        for i in range(len(problems))
        for j in range(i)
    ]
    assert max(deviations) < TOLERANCE


def test_graph_batch_pairs_run_through_the_matrix_kernel():
    """The fit set and a batch each send their inner pairs through one
    all-pairs matrix kernel call and the batch's pairs with the
    vertices through the one-vs-many kernel; ``stats["pair_evals"]``
    counts exactly the pairs the kernels evaluated."""
    test = _CountingKS()
    family = make_problem_family(6)
    graph = ERProblemGraph.build(family[:2], test)
    graph.add_problems(family[2:])
    # 1 build pair, 4 x 2 members-vs-vertices, 6 inner batch pairs.
    assert test.calls == graph.stats["pair_evals"] == 1 + 4 * 2 + 6
    assert test.matrix_calls == 2


def test_graph_pair_cache_answers_unlinked_pairs():
    """With no pair above ``min_similarity`` every evaluated pair lives
    in the pair cache, and :meth:`pair_similarity` answers each one
    without a kernel call; each row keeps its one signature."""
    test = _CountingKS()
    problems = make_problem_family(4)
    graph = ERProblemGraph.build(problems, test, min_similarity=1.0)
    calls_after_build = test.calls
    assert calls_after_build == 6  # C(4, 2)
    assert len(graph._signatures) == len(problems)
    for signature, problem in zip(graph._signatures, problems):
        assert signature.features is problem.features
    raw = make_distribution_test("ks")
    for i, problem in enumerate(problems):
        for other in problems[i + 1:]:
            assert abs(
                graph.pair_similarity(problem.key, other.key)
                - raw.problem_similarity(problem.features, other.features)
            ) < TOLERANCE
    assert test.calls == calls_after_build


def test_graph_pair_similarity_accessor():
    problems = make_problem_family(3)
    graph = ERProblemGraph.build(problems, "ks")
    raw = make_distribution_test("ks").problem_similarity(
        problems[0].features, problems[1].features
    )
    assert abs(
        graph.pair_similarity(problems[0].key, problems[1].key) - raw
    ) < TOLERANCE


class _CountingC2ST(ClassifierTwoSampleTest):
    """C2ST that counts pairwise evaluations (any path)."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def problem_similarity(self, features_a, features_b):
        self.calls += 1
        return super().problem_similarity(features_a, features_b)


def test_graph_build_evaluates_c2st_once_per_pair():
    """Batched build must not pay both orientations for asymmetric
    tests — only the lower triangle is consumed."""
    test = _CountingC2ST()
    problems = make_problem_family(4)
    ERProblemGraph.build(problems, test)
    assert test.calls == 6  # C(4, 2), same as the sequential path


def test_psi_n_bins_mutation_keeps_paths_in_sync():
    """Rebinding n_bins after construction must retune the cached edges
    so the raw and signature paths keep agreeing."""
    rng = np.random.default_rng(5)
    a, b = rng.random((60, 3)), rng.random((80, 3))
    test = make_distribution_test("psi", n_bins=10)
    test.n_bins = 20
    raw = test.problem_similarity(a, b)
    reference = make_distribution_test("psi", n_bins=20).problem_similarity(a, b)
    assert raw == pytest.approx(reference, abs=TOLERANCE)
    fast = test.signature_similarity(ProblemSignature(a), ProblemSignature(b))
    assert abs(raw - fast) < TOLERANCE
    with pytest.raises(ValueError, match="bins"):
        test.n_bins = 1


def test_repository_search_refuses_out_of_range_raw_probe():
    """The exact search scores signatures only: a raw ndarray probe
    outside [0, 1], the feature domain ERProblem enforces, is refused,
    and so are training features outside it."""
    problems = make_problem_family(4)
    repo = _fitted_repo(problems)
    assert not repo._indexed()
    rng = np.random.default_rng(8)
    probe = rng.normal(1.5, 2.0, (40, 4))  # clearly outside [0, 1]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        repo.search(probe)
    entry, similarity = repo.search(np.clip(probe, 0.0, 1.0))
    raw_id, raw_similarity = _raw_search(repo, np.clip(probe, 0.0, 1.0))
    assert entry.cluster_id == raw_id
    assert abs(similarity - raw_similarity) < TOLERANCE
    entries = len(repo)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        repo.add_entry({("X", "Y")}, None, probe, np.zeros(40, dtype=int))
    assert len(repo) == entries


def test_graph_pair_similarity_preserves_c2st_orientation():
    """C2ST is order-asymmetric, so pair_similarity must compute in the
    requested orientation and never serve an order-normalized cache."""
    problems = make_problem_family(3)
    graph = ERProblemGraph.build(problems, "c2st")
    assert not graph._cache_pairs
    test = make_distribution_test("c2st")
    for a, b in [(problems[0], problems[2]), (problems[2], problems[0])]:
        raw = test.problem_similarity(a.features, b.features)
        assert graph.pair_similarity(a.key, b.key) == pytest.approx(
            raw, abs=TOLERANCE
        )


def test_signature_statistics_are_lazy():
    """C2ST's signature path must not trigger the univariate statistics
    (sorts, CDFs) it never reads."""
    problems = make_problem_family(2)
    sig_a, sig_b = ProblemSignature(problems[0]), ProblemSignature(problems[1])
    make_distribution_test("c2st").signature_similarity(sig_a, sig_b)
    assert sig_a._sorted_columns is None and sig_a._self_cdf is None
    make_distribution_test("ks").signature_similarity(sig_a, sig_b)
    assert sig_a._self_cdf is not None


def test_graph_duplicate_key_rejected_in_batch():
    problem = make_problem()
    with pytest.raises(ValueError, match="already in the graph"):
        ERProblemGraph.build([problem, problem], "ks")


# -- repository integration --------------------------------------------------------


def _fitted_repo(problems):
    repo = ModelRepository("ks")
    for i in range(0, len(problems), 2):
        group = problems[i:i + 2]
        X = np.vstack([p.features for p in group])
        y = np.concatenate([p.labels for p in group])
        model = RandomForestClassifier(n_estimators=5, random_state=0)
        model.fit(X, y)
        repo.add_entry({p.key for p in group}, model, X, y)
    return repo


def _raw_search(repo, features):
    """``(cluster_id, sim_p)`` of the best entry under the raw §4.2
    test (first entry wins a tie, as in ``search``)."""
    return max(
        (
            (entry.cluster_id, repo.test.problem_similarity(
                features, entry.training_features
            ))
            for entry in repo.entries.values()
        ),
        key=lambda item: item[1],
    )


def test_repository_search_matches_naive_path():
    repo = _fitted_repo(make_problem_family(6))
    for seed in range(5):
        probe = make_problem("X", "Y", shift=0.15 * (seed % 3), seed=seed)
        entry, similarity = repo.search(probe)
        raw_id, raw_similarity = _raw_search(repo, probe.features)
        assert entry.cluster_id == raw_id
        assert abs(similarity - raw_similarity) < TOLERANCE


def test_repository_search_top_k():
    problems = make_problem_family(6)
    repo = _fitted_repo(problems)
    probe = make_problem("X", "Y", seed=11)
    ranked = repo.search(probe, top_k=2)
    assert len(ranked) == 2
    assert ranked[0][1] >= ranked[1][1]
    best_entry, best_similarity = repo.search(probe)
    assert ranked[0][0] is best_entry
    assert ranked[0][1] == pytest.approx(best_similarity)
    # top_k beyond the entry count returns everything, best first.
    everything = repo.search(probe, top_k=100)
    assert len(everything) == len(repo)
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="top_k"):
            repo.search(probe, top_k=bad)


def test_repository_entry_signature_invalidation():
    problems = make_problem_family(4)
    repo = _fitted_repo(problems)
    probe = make_problem("X", "Y", seed=9)
    repo.search(probe)  # populate entry signature cache
    entry = next(iter(repo.entries.values()))
    replacement = make_problem("R", "S", shift=0.4, seed=77)
    entry.training_features = replacement.features
    repo.invalidate_entry_cache(entry.cluster_id)
    _, similarity = repo.search(probe)
    _, raw_similarity = _raw_search(repo, probe.features)
    assert abs(similarity - raw_similarity) < TOLERANCE


def test_repository_entry_signature_identity_safety_net():
    """Replacing training_features is detected even without an explicit
    invalidate_entry_cache call (the object-identity check)."""
    problems = make_problem_family(2)
    repo = _fitted_repo(problems)
    probe = make_problem("X", "Y", seed=4)
    _, before = repo.search(probe)
    entry = next(iter(repo.entries.values()))
    entry.training_features = make_problem("R", "S", shift=0.45,
                                           seed=5).features
    _, after = repo.search(probe)
    raw = make_distribution_test("ks").problem_similarity(
        probe.features, entry.training_features
    )
    assert abs(after - raw) < TOLERANCE
    assert after != pytest.approx(before, abs=1e-6)


def test_repository_key_index_consistency():
    problems = make_problem_family(6)
    repo = _fitted_repo(problems)
    for problem in problems:
        entry = repo.entry_for_problem(problem.key)
        assert entry is not None and problem.key in entry.problem_keys
    assert repo.entry_for_problem(("nope", "nada")) is None


def test_repository_reassign_cluster_updates_index():
    problems = make_problem_family(6)
    repo = _fitted_repo(problems)
    entries = list(repo.entries.values())
    a, b = entries[0], entries[1]
    stolen_key = next(iter(b.problem_keys))
    dropped_key = next(iter(a.problem_keys))
    new_cluster = (set(a.problem_keys) - {dropped_key}) | {stolen_key}
    repo.reassign_cluster(a, new_cluster)
    assert a.problem_keys == new_cluster
    assert stolen_key not in b.problem_keys
    assert repo.entry_for_problem(stolen_key) is a
    assert repo.entry_for_problem(dropped_key) is None


def test_repository_index_handles_overlapping_entries():
    """sel_cov can transiently register a key in two entries; the index
    must behave like the pre-index linear scan: oldest entry wins,
    overlap counts include every containing entry, and reassigning
    strips the key from all of them."""
    problems = make_problem_family(4)
    repo = _fitted_repo(problems)  # entries 0 and 1, two problems each
    shared = problems[0].key       # lives in entry 0
    entry_0, entry_1 = repo.entries[0], repo.entries[1]
    # A newer entry claims an already-assigned key (the overlap window).
    new_id = repo.add_entry(
        {shared}, None, problems[0].features, problems[0].labels
    )
    assert repo.entry_for_problem(shared) is entry_0  # oldest wins
    from repro.core.selection import _max_overlap_entry
    counts_target = {shared, next(iter(entry_1.problem_keys))}
    # shared counts for entries 0 AND new_id; entry_1's key breaks ties.
    assert _max_overlap_entry(repo, counts_target) is entry_0
    # Reassigning to entry_1 steals the key from both containing entries.
    repo.reassign_cluster(entry_1, entry_1.problem_keys | {shared})
    assert shared not in entry_0.problem_keys
    assert shared not in repo.entries[new_id].problem_keys
    assert repo.entry_for_problem(shared) is entry_1


def test_repository_save_load_preserves_index(tmp_path):
    problems = make_problem_family(4)
    repo = _fitted_repo(problems)
    repo.save(tmp_path / "store")
    loaded = ModelRepository.load(tmp_path / "store")
    for problem in problems:
        entry = loaded.entry_for_problem(problem.key)
        assert entry is not None and problem.key in entry.problem_keys


# -- MoRER integration -------------------------------------------------------------


def test_record_cluster_counts_matches_reference():
    family = make_problem_family(6)
    morer = MoRER(b_total=120, b_min=10, random_state=0).fit(family)
    clusters = morer.clusters_
    counts = morer._record_cluster_counts(clusters)
    # Reference: the per-cluster pair_ids walk the rewrite replaced.
    reference = {}
    problems_by_key = morer.problem_graph.problems()
    for cluster in clusters:
        records = set()
        for key in cluster:
            problem = problems_by_key[key]
            if problem.pair_ids is None:
                continue
            for record_a, record_b in problem.pair_ids:
                records.add(record_a)
                records.add(record_b)
        for record in records:
            reference[record] = reference.get(record, 0) + 1
    assert counts == reference


def test_morer_sel_cov_search_consistent_after_retraining():
    """After Eq. 14 retraining, repository search must reflect the new
    representative (stale-signature regression test)."""
    family = [make_problem(f"S{i}", f"T{i}", seed=i) for i in range(4)]
    morer = MoRER(b_total=80, b_min=10, selection="cov", t_cov=0.05,
                  random_state=0)
    morer.fit(family)
    retrained = False
    for i in range(3):
        probe = make_problem(f"X{i}", f"Y{i}", seed=50 + i)
        result = morer.solve(probe)
        retrained = retrained or result.retrained
    probe = make_problem("Z", "W", seed=99)
    entry, similarity = morer.repository.search(probe)
    raw = morer.test.problem_similarity(
        probe.features, entry.training_features
    )
    assert abs(similarity - raw) < TOLERANCE
