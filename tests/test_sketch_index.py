"""Sketch index tests: layout, lifecycle, queries, repository wiring."""

import numpy as np
import pytest

from repro.core import (
    ModelRepository,
    MoRERConfig,
    ProblemSignature,
    SketchIndex,
    sketch_vector,
)
from repro.ml import RandomForestClassifier
from tests.conftest import exact_ranking, make_problem, make_problem_family

TOLERANCE = 1e-9


def _signature(seed, n=40, n_features=3, loc=None):
    rng = np.random.default_rng(seed)
    loc = 0.2 + 0.6 * ((seed % 7) / 6.0) if loc is None else loc
    return ProblemSignature(
        np.clip(rng.normal(loc, 0.1, (n, n_features)), 0, 1)
    )


# -- sketch vectors ----------------------------------------------------------------


def test_sketch_vector_layout():
    signature = _signature(0, n=50, n_features=3)
    vector = sketch_vector(signature, n_bins=8)
    assert vector.shape == (3 * (8 + 2),)
    cdfs = vector[:24].reshape(3, 8)
    # Histogram blocks are discretized CDFs: non-decreasing, ending at 1.
    assert np.all(np.diff(cdfs, axis=1) >= 0)
    assert np.allclose(cdfs[:, -1], 1.0)
    proportions = np.diff(cdfs, axis=1, prepend=0.0)
    assert np.allclose(
        proportions * signature.n_samples, signature.histogram(8)
    )
    assert np.allclose(vector[24:27], signature.means)
    assert np.allclose(vector[27:30], signature.stds)


def test_sketch_vector_accepts_raw_matrix():
    rng = np.random.default_rng(1)
    features = rng.random((30, 2))
    assert np.array_equal(
        sketch_vector(features, n_bins=4),
        sketch_vector(ProblemSignature(features), n_bins=4),
    )


# -- index lifecycle ---------------------------------------------------------------


def test_index_validation():
    with pytest.raises(ValueError, match="bins"):
        SketchIndex(n_bins=1)
    index = SketchIndex()
    index.add(0, _signature(0))
    with pytest.raises(ValueError, match="n_candidates"):
        index.query(_signature(1), 0)


def test_index_add_discard_contiguity():
    index = SketchIndex(n_bins=4)
    signatures = {i: _signature(i) for i in range(6)}
    for i, signature in signatures.items():
        index.add(i, signature)
    assert len(index) == 6 and index.dim == 3 * (4 + 2)
    # Discarding a middle row swaps the last row into the hole.
    assert index.discard(2)
    assert not index.discard(2)
    assert len(index) == 5 and 2 not in index
    assert set(index.ids()) == {0, 1, 3, 4, 5}
    # Every surviving row still holds its own sketch.
    for i in index.ids():
        row = index._rows[i]
        assert np.array_equal(
            index._matrix[row], index.sketch(signatures[i])
        )


def test_index_clear_releases_width():
    index = SketchIndex(n_bins=4)
    index.add(0, _signature(0, n_features=3))
    index.clear()
    assert len(index) == 0 and index.dim is None
    index.add(1, _signature(1, n_features=5))  # new width accepted
    assert index.dim == 5 * (4 + 2)


def test_index_refresh_overwrites_in_place():
    index = SketchIndex(n_bins=4)
    index.add(7, _signature(0))
    refreshed = _signature(1)
    index.add(7, refreshed)
    assert len(index) == 1
    assert np.array_equal(index._matrix[0], index.sketch(refreshed))


def test_index_grows_past_initial_capacity():
    index = SketchIndex(n_bins=2)
    signatures = {i: _signature(i, n=10, n_features=1) for i in range(200)}
    for i, signature in signatures.items():
        index.add(i, signature)
    assert len(index) == 200
    for i in (0, 63, 64, 199):
        row = index._rows[i]
        assert np.array_equal(
            index._matrix[row], index.sketch(signatures[i])
        )


def test_index_rejects_width_mismatch():
    index = SketchIndex(n_bins=4)
    index.add(0, _signature(0, n_features=3))
    with pytest.raises(ValueError, match="feature space"):
        index.add(1, _signature(1, n_features=5))
    with pytest.raises(ValueError, match="width"):
        index.query(_signature(1, n_features=5), 1)


def test_index_query_matches_brute_force():
    index = SketchIndex(n_bins=8)
    signatures = [_signature(i) for i in range(40)]
    for i, signature in enumerate(signatures):
        index.add(i, signature)
    probe = _signature(991, loc=0.45)
    probe_vector = index.sketch(probe)
    reference = []
    for i, signature in enumerate(signatures):
        delta = index.sketch(signature) - probe_vector
        reference.append((float(delta @ delta), i))
    expected = [i for _, i in sorted(reference)][:10]
    assert index.query(probe, 10) == expected
    # Asking for more than the index holds returns everything, nearest
    # first.
    assert index.query(probe, 100) == [i for _, i in sorted(reference)]
    assert index.query(probe, 1) == expected[:1]


def test_index_query_empty():
    assert SketchIndex().query(_signature(0), 5) == []


# -- repository wiring -------------------------------------------------------------


def _scan_counting_repository(problems, index_threshold):
    """Repository whose test counts signature_similarity evaluations."""
    from repro.core import KolmogorovSmirnovTest

    class CountingKS(KolmogorovSmirnovTest):
        calls = 0

        def signature_similarity(self, a, b):
            CountingKS.calls += 1
            return super().signature_similarity(a, b)

        def signature_similarity_many(self, probe, signatures):
            CountingKS.calls += len(signatures)
            return super().signature_similarity_many(probe, signatures)

    repo = ModelRepository(CountingKS(), index_threshold=index_threshold)
    for problem in problems:
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    return repo, CountingKS


def test_repository_auto_threshold_switches_paths():
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.1 * (i % 4), seed=i)
        for i in range(12)
    ]
    repo, counter = _scan_counting_repository(problems, index_threshold=20)
    probe = make_problem("X", "Y", seed=99)
    repo.search(probe)
    assert counter.calls == 12  # below threshold: exact scan
    for i in range(12, 60):
        problem = make_problem(f"S{i}", f"T{i}", seed=i)
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    counter.calls = 0
    repo.search(make_problem("X2", "Y2", seed=100))
    assert counter.calls == 48  # indexed: only the default rerank width
    counter.calls = 0
    repo.search(make_problem("X3", "Y3", seed=101), top_k=7)
    assert counter.calls == 56  # the width grows as 8 * top_k
    counter.calls = 0
    repo.index_threshold = 61
    repo.search(make_problem("X4", "Y4", seed=102))
    assert counter.calls == 60  # a threshold above the size: the scan


def _assert_matches_exact(repo, probe, top_k):
    """``repo.search`` agrees with the exact scan computed outside it:
    the same ranking, similarities within ``TOLERANCE``."""
    exact = exact_ranking(repo, probe, top_k)
    found = repo.search(probe, top_k=top_k)
    assert [entry.cluster_id for entry, _ in found] == [
        cluster_id for cluster_id, _ in exact
    ]
    for (_, found_similarity), (_, exact_similarity) in zip(found, exact):
        assert abs(found_similarity - exact_similarity) < TOLERANCE


def test_repository_indexed_search_matches_exact_at_full_width():
    """A repository within the default rerank width (48) reranks every
    entry, so the indexed path must reproduce the exact ranking and
    similarities."""
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.12 * (i % 3), seed=i)
        for i in range(30)
    ]
    repo = ModelRepository("ks", index_threshold=1)
    for problem in problems:
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    for seed in range(3):
        probe = make_problem("X", "Y", shift=0.12 * seed, seed=60 + seed)
        _assert_matches_exact(repo, probe, top_k=5)
    assert len(repo._sketch_index) == 30


@pytest.mark.parametrize("name", ["wd", "psi", "c2st"])
def test_repository_indexed_search_other_tests(name):
    """The indexed path works for every distribution test, including
    the C2ST fallback without a many-kernel."""
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.15 * (i % 3), seed=i)
        for i in range(12)
    ]
    repo = ModelRepository(name, index_threshold=1)
    for problem in problems:
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    probe = make_problem("X", "Y", seed=77)
    entry, similarity = repo.search(probe)
    (exact_id, exact_similarity), = exact_ranking(repo, probe, top_k=1)
    assert entry.cluster_id == exact_id
    assert abs(similarity - exact_similarity) < TOLERANCE


def test_repository_use_index_validation():
    """Whether the repository searches through its index is set by
    ``index_threshold`` alone, validated in the constructor and in the
    config the constructor reads it from."""
    with pytest.raises(ValueError, match="index_threshold"):
        MoRERConfig(index_threshold=0)
    with pytest.raises(ValueError, match="index_threshold"):
        ModelRepository("ks", index_threshold=0)
    with pytest.raises(ValueError, match="index_threshold"):
        ModelRepository("ks", index_threshold=-5)
    assert ModelRepository(
        "ks", MoRERConfig(index_threshold=7)
    ).index_threshold == 7


def test_repository_save_load_preserves_index_settings(tmp_path):
    """The index threshold survives save/load even without a config
    (regression: a repository's setting silently reverted to the
    default and could switch paths after a reload)."""
    problems = make_problem_family(4)
    repo = ModelRepository("ks", index_threshold=2)
    for problem in problems:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    repo.save(tmp_path / "store")
    loaded = ModelRepository.load(tmp_path / "store")
    assert loaded.index_threshold == 2


def test_repository_indexed_search_refuses_out_of_range_probe():
    """The indexed search scores signatures only: a raw probe outside
    [0, 1] is refused before the sketch prefilter runs."""
    problems = make_problem_family(6)
    repo = ModelRepository("ks", index_threshold=1)
    for problem in problems:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    rng = np.random.default_rng(8)
    probe = rng.normal(1.5, 2.0, (40, 4))  # outside [0, 1]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        repo.search(probe)
    assert len(repo._sketch_index) == 0  # refused before the prefilter
    clipped = np.clip(probe, 0.0, 1.0)
    raw = [
        repo.test.problem_similarity(clipped, problem.features)
        for problem in problems
    ]
    entry, similarity = repo.search(clipped)
    assert entry.cluster_id == int(np.argmax(raw))
    assert abs(similarity - max(raw)) < TOLERANCE


def test_repository_load_rebuilds_sketch_index(tmp_path):
    """Loaded entries bypass add_entry; indexed search must still see
    every entry once a store saved below the threshold outgrows it
    (regression: empty index -> empty search results)."""
    problems = make_problem_family(7)
    repo = ModelRepository("ks", index_threshold=7)
    for problem in problems[:6]:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    repo.save(tmp_path / "store")
    loaded = ModelRepository.load(tmp_path / "store")
    assert "sketch_rows" not in np.load(tmp_path / "store" / "vectors.npz")
    loaded.add_entry(
        {problems[6].key}, None, problems[6].features, problems[6].labels
    )
    probe = make_problem("X", "Y", seed=3)
    _assert_matches_exact(loaded, probe, top_k=3)
    assert len(loaded._sketch_index) == len(loaded) == 7


def test_repository_save_load_persists_sketch_matrix(tmp_path):
    """save() writes the sketch matrix into vectors.npz and load()
    restores it, so cold-start indexed search skips the lazy rebuild
    (no sketch is re-derived from a signature)."""
    import repro.core.sketch_index as sketch_module

    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.1 * (i % 4), seed=i)
        for i in range(10)
    ]
    repo = ModelRepository("ks", index_threshold=1)
    for problem in problems:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    probe = make_problem("X", "Y", seed=5)
    expected = repo.search(probe, top_k=4)  # also syncs the index
    repo.save(tmp_path / "store")
    arrays = np.load(tmp_path / "store" / "vectors.npz")
    assert arrays["sketch_rows"].shape == (10, repo._sketch_index.dim)
    assert set(arrays["sketch_ids"]) == set(repo.entries)

    loaded = ModelRepository.load(tmp_path / "store")
    assert len(loaded._sketch_index) == 10
    assert not loaded._index_pending
    calls = []
    original = sketch_module.sketch_vector

    def spy(signature, n_bins=16):
        calls.append(signature)
        return original(signature, n_bins)

    sketch_module.sketch_vector = spy
    try:
        # The probe's own sketch is the only one computed.
        got = loaded.search(probe, top_k=4)
    finally:
        sketch_module.sketch_vector = original
    assert len(calls) == 1
    assert [e.cluster_id for e, _ in got] == [
        e.cluster_id for e, _ in expected
    ]
    for (_, sim_a), (_, sim_b) in zip(expected, got):
        assert abs(sim_a - sim_b) < TOLERANCE


def test_sketch_index_export_bulk_load_round_trip():
    index = SketchIndex(n_bins=4)
    signatures = {i: _signature(i) for i in range(8)}
    for i, signature in signatures.items():
        index.add(i, signature)
    index.discard(3)
    ids, rows = index.export_rows()
    restored = SketchIndex(n_bins=4)
    restored.bulk_load(ids, rows)
    assert restored.ids() == index.ids()
    probe = _signature(99, loc=0.5)
    assert restored.query(probe, 5) == index.query(probe, 5)
    with pytest.raises(ValueError, match="one sketch row per id"):
        restored.bulk_load([1, 2], rows)
    with pytest.raises(ValueError, match="unique"):
        restored.bulk_load([1] * len(ids), rows)
    # Empty payload resets to a fresh index.
    restored.bulk_load([], np.empty((0, 0)))
    assert len(restored) == 0 and restored.dim is None
