"""Sketch index tests: layout, lifecycle, queries, repository wiring."""

import numpy as np
import pytest

from repro.core import (
    ModelRepository,
    ProblemSignature,
    SketchIndex,
    sketch_vector,
)
from repro.ml import RandomForestClassifier
from tests.conftest import make_problem, make_problem_family

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
    with pytest.raises(ValueError, match="metric"):
        SketchIndex(metric="cosine")
    with pytest.raises(ValueError, match="n_projections"):
        SketchIndex(n_projections=-1)
    with pytest.raises(ValueError, match="oversample"):
        SketchIndex(oversample=0)
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


@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_index_query_matches_brute_force(metric):
    index = SketchIndex(n_bins=8, metric=metric)
    signatures = [_signature(i) for i in range(40)]
    for i, signature in enumerate(signatures):
        index.add(i, signature)
    probe = _signature(991, loc=0.45)
    probe_vector = index.sketch(probe)
    reference = []
    for i, signature in enumerate(signatures):
        delta = index.sketch(signature) - probe_vector
        distance = (
            np.abs(delta).sum() if metric == "l1" else float(delta @ delta)
        )
        reference.append((distance, i))
    expected = [i for _, i in sorted(reference)][:10]
    assert index.query(probe, 10) == expected
    # Asking for more than the index holds returns everything, nearest
    # first.
    assert index.query(probe, 100) == [i for _, i in sorted(reference)]
    assert index.query(probe, 1) == expected[:1]


def test_index_query_empty():
    assert SketchIndex().query(_signature(0), 5) == []


def test_index_auto_projections_engage_at_threshold():
    """n_projections='auto' must switch the prefilter on exactly when
    the entry count crosses auto_threshold, with width/oversample
    derived from the entry count, and stay a good approximation.

    Uses 32-bin sketches so the sketch dim (102) exceeds the derived
    width — narrow sketches deliberately never enable (see below)."""
    index = SketchIndex(n_bins=32, n_projections="auto", auto_threshold=64,
                        random_state=3)
    reference = SketchIndex(n_bins=32, n_projections=0)
    signatures = [_signature(i) for i in range(150)]
    for i, signature in enumerate(signatures[:63]):
        index.add(i, signature)
        reference.add(i, signature)
    assert index._projection is None  # still exact below the threshold
    for i, signature in enumerate(signatures[63:], start=63):
        index.add(i, signature)
        reference.add(i, signature)
    assert index._projection is not None
    width = index._projection.shape[1]
    assert width == SketchIndex.auto_projection_width(64, index.dim)
    assert 2 <= width <= index.dim
    assert index.oversample >= 4
    # Rows added after the switch are mirrored into the projected
    # matrix; earlier rows were projected in bulk at the switch.
    assert np.allclose(
        index._projected[:len(index)],
        index._matrix[:len(index)] @ index._projection,
    )
    probe = _signature(777, loc=0.5)
    exact_top = set(reference.query(probe, 10))
    approx_top = set(index.query(probe, 10))
    assert len(exact_top & approx_top) >= 6
    # Clearing resets the auto state: a refilled small index is exact.
    index.clear()
    index.add(0, signatures[0])
    assert index._projection is None
    # Narrow sketches (derived width >= dim) never enable: a square
    # projection only adds work and distance distortion.
    narrow = SketchIndex(n_bins=8, n_projections="auto", auto_threshold=64)
    for i, signature in enumerate(signatures):
        narrow.add(i, signature)
    assert narrow.dim == 30  # 3 features * (8 bins + 2 moments)
    assert SketchIndex.auto_projection_width(150, 30) == 30
    assert narrow._projection is None


def test_index_auto_projection_width_derivation():
    assert SketchIndex.auto_projection_width(10_000, 1_000) == max(
        32, int(8 * np.log2(10_000))
    )
    # Capped at the sketch width for narrow sketches.
    assert SketchIndex.auto_projection_width(10_000, 20) == 20
    with pytest.raises(ValueError, match="n_projections"):
        SketchIndex(n_projections="many")
    with pytest.raises(ValueError, match="auto_threshold"):
        SketchIndex(auto_threshold=0)


def test_index_projection_prefilter():
    """The random-projection path must stay a good approximation of the
    full-width scan (JL: distances are preserved in expectation)."""
    full = SketchIndex(n_bins=8)
    projected = SketchIndex(n_bins=8, n_projections=12, oversample=4,
                            random_state=3)
    signatures = [_signature(i) for i in range(150)]
    for i, signature in enumerate(signatures):
        full.add(i, signature)
        projected.add(i, signature)
    probe = _signature(555, loc=0.5)
    exact_top = set(full.query(probe, 10))
    approx_top = set(projected.query(probe, 10))
    assert len(exact_top & approx_top) >= 6
    # Below the oversample cutoff the projected index scans exactly.
    assert projected.query(probe, 100) == full.query(probe, 100)


# -- repository wiring -------------------------------------------------------------


def _scan_counting_repository(problems, **kwargs):
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

    repo = ModelRepository(CountingKS(), **kwargs)
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
    repo, counter = _scan_counting_repository(
        problems, index_threshold=20, n_candidates=4
    )
    probe = make_problem("X", "Y", seed=99)
    repo.search(probe)
    assert counter.calls == 12  # below threshold: exact scan
    for i in range(12, 25):
        problem = make_problem(f"S{i}", f"T{i}", seed=i)
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    counter.calls = 0
    repo.search(make_problem("X2", "Y2", seed=100))
    assert counter.calls == 4  # indexed: only the rerank slice
    counter.calls = 0
    repo.search(make_problem("X3", "Y3", seed=101), use_index=False)
    assert counter.calls == 25  # per-call override restores the scan


def test_repository_indexed_search_matches_exact_at_full_width():
    """With n_candidates covering the whole repository the indexed path
    must reproduce the exact ranking and similarities."""
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.12 * (i % 3), seed=i)
        for i in range(30)
    ]
    repo = ModelRepository("ks", use_index=True)
    for problem in problems:
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    for seed in range(3):
        probe = make_problem("X", "Y", shift=0.12 * seed, seed=60 + seed)
        exact = repo.search(probe, top_k=5, use_index=False)
        indexed = repo.search(probe, top_k=5, n_candidates=len(repo))
        assert [e.cluster_id for e, _ in exact] == [
            e.cluster_id for e, _ in indexed
        ]
        for (_, sim_a), (_, sim_b) in zip(exact, indexed):
            assert abs(sim_a - sim_b) < TOLERANCE


@pytest.mark.parametrize("name", ["wd", "psi", "c2st"])
def test_repository_indexed_search_other_tests(name):
    """The indexed path works for every distribution test, including
    the C2ST fallback without a many-kernel."""
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.15 * (i % 3), seed=i)
        for i in range(12)
    ]
    repo = ModelRepository(name, use_index=True)
    for problem in problems:
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    probe = make_problem("X", "Y", seed=77)
    entry, similarity = repo.search(probe, n_candidates=len(repo))
    exact_entry, exact_similarity = repo.search(probe, use_index=False)
    assert entry.cluster_id == exact_entry.cluster_id
    assert abs(similarity - exact_similarity) < TOLERANCE


def test_repository_use_index_validation():
    with pytest.raises(ValueError, match="use_index"):
        ModelRepository("ks", use_index="always")
    with pytest.raises(ValueError, match="index_threshold"):
        ModelRepository("ks", index_threshold=0)
    with pytest.raises(ValueError, match="n_candidates"):
        ModelRepository("ks", n_candidates=0)
    # Per-call overrides get the same validation as the constructor:
    # a truthy-but-invalid string must not silently enable the index.
    problem = make_problem()
    repo = ModelRepository("ks")
    repo.add_entry(
        {problem.key}, None, problem.features,
        np.zeros(problem.n_pairs, dtype=int),
    )
    with pytest.raises(ValueError, match="use_index"):
        repo.search(problem, use_index="never")
    with pytest.raises(ValueError, match="n_candidates"):
        repo.search(problem, n_candidates=-5)


def test_repository_save_load_preserves_index_settings(tmp_path):
    """Constructor-level index settings survive save/load even without
    a config (regression: exact-mode repositories silently reverted to
    'auto' and could serve approximate results after a reload)."""
    problems = make_problem_family(4)
    repo = ModelRepository(
        "ks", use_index=False, index_threshold=2, n_candidates=7,
        sketch_bins=8,
    )
    for problem in problems:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    repo.save(tmp_path / "store")
    loaded = ModelRepository.load(tmp_path / "store")
    assert loaded.use_index is False
    assert loaded.index_threshold == 2
    assert loaded.n_candidates == 7
    assert loaded._sketch_index.n_bins == 8


def test_repository_out_of_range_probe_falls_back_with_index():
    problems = make_problem_family(6)
    repo = ModelRepository("ks", use_index=True)
    for problem in problems:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    rng = np.random.default_rng(8)
    probe = rng.normal(1.5, 2.0, (40, 4))  # outside [0, 1]
    raw = [
        repo.test.problem_similarity(probe, problem.features)
        for problem in problems
    ]
    entry, similarity = repo.search(probe)
    assert entry.cluster_id == int(np.argmax(raw))
    assert abs(similarity - max(raw)) < TOLERANCE


def test_repository_load_rebuilds_sketch_index(tmp_path):
    """Loaded entries bypass add_entry; indexed search must still see
    every entry (regression: empty index -> empty search results)."""
    problems = make_problem_family(6)
    repo = ModelRepository("ks")
    for problem in problems:
        model = RandomForestClassifier(n_estimators=3, random_state=0)
        model.fit(problem.features, problem.labels)
        repo.add_entry(
            {problem.key}, model, problem.features, problem.labels
        )
    repo.save(tmp_path / "store")
    loaded = ModelRepository.load(tmp_path / "store")
    probe = make_problem("X", "Y", seed=3)
    indexed = loaded.search(probe, top_k=3, use_index=True,
                            n_candidates=len(loaded))
    exact = loaded.search(probe, top_k=3, use_index=False)
    assert len(indexed) == 3
    assert [e.cluster_id for e, _ in indexed] == [
        e.cluster_id for e, _ in exact
    ]
    assert len(loaded._sketch_index) == len(loaded)


def test_repository_save_load_persists_sketch_matrix(tmp_path):
    """save() writes the sketch matrix into vectors.npz and load()
    restores it, so cold-start indexed search skips the lazy rebuild
    (no sketch is re-derived from a signature)."""
    import repro.core.sketch_index as sketch_module

    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.1 * (i % 4), seed=i)
        for i in range(10)
    ]
    repo = ModelRepository("ks", use_index=True)
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


def test_repository_remove_entry_evicts_sketch_row():
    problems = make_problem_family(6)
    repo = ModelRepository("ks", use_index=True)
    for problem in problems:
        repo.add_entry(
            {problem.key}, None, problem.features,
            np.zeros(problem.n_pairs, dtype=int),
        )
    repo.search(make_problem("X", "Y", seed=5))  # builds the index
    assert len(repo._sketch_index) == 6
    victim = next(iter(repo.entries))
    repo.remove_entry(victim)
    assert victim not in repo._sketch_index
    entry, _ = repo.search(make_problem("X2", "Y2", seed=6))
    assert entry.cluster_id != victim
    assert len(repo._sketch_index) == 5
