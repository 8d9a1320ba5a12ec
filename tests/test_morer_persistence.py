"""Whole-MoRER persistence: save/load round trips, the zero-rebuild
counters, and format versioning."""

import json

import numpy as np
import pytest

from repro.core import MoRER, adjusted_rand_index
from tests.conftest import make_problem, make_problem_family


def _probes(n, seed=100, prefix="X"):
    return [
        make_problem(
            f"{prefix}{i}", f"{prefix}{i}b", shift=0.3 * (i % 2),
            seed=seed + i,
        )
        for i in range(n)
    ]


def _fit_warm(tmp_path=None, n_solves=4, **overrides):
    """A fitted instance that has already served a few sel_cov probes
    (so the warm partition, pair cache and sketch state are all live)."""
    config = dict(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        incremental_clustering=True, use_index=True, graph_candidates=6,
    )
    config.update(overrides)
    morer = MoRER(**config).fit(make_problem_family(10))
    for probe in _probes(n_solves):
        morer.solve(probe)
    return morer


def test_round_trip_matches_continued_instance(tmp_path):
    """A loaded instance must behave byte-for-byte like the pre-save
    instance continuing in-process — including the RNG stream."""
    morer = _fit_warm()
    morer.save(tmp_path / "store")
    twin = MoRER.load(tmp_path / "store")
    assert twin.config == morer.config
    assert twin.trained_keys == morer.trained_keys
    assert sorted(map(sorted, twin.clusters_)) == sorted(
        map(sorted, morer.clusters_)
    )
    assert twin.total_labels_spent() == morer.total_labels_spent()
    assert twin.overhead_seconds() == pytest.approx(
        morer.overhead_seconds()
    )
    for probe in _probes(5, seed=700, prefix="R"):
        mine = morer.solve(probe)
        theirs = twin.solve(probe)
        assert np.array_equal(mine.predictions, theirs.predictions)
        assert mine.retrained == theirs.retrained
        assert mine.new_model == theirs.new_model
        assert mine.cluster_id == theirs.cluster_id
        assert adjusted_rand_index(morer.clusters_, twin.clusters_) == 1.0


def test_first_post_restart_solve_rebuilds_nothing(tmp_path):
    """The acceptance counters: the first ``sel_cov`` solve after a
    restart triggers no signature, sketch or partition rebuild, and
    pays exactly the pairwise work the warm pre-save instance pays for
    the same probe."""
    morer = _fit_warm()
    morer.save(tmp_path / "store")
    twin = MoRER.load(tmp_path / "store")
    probe = _probes(1, seed=900, prefix="Z")[0]

    warm_pairs_before = morer.problem_graph.stats["pair_evals"]
    warm_result = morer.solve(probe)
    warm_pairs = morer.problem_graph.stats["pair_evals"] - warm_pairs_before

    # Freshly loaded: nothing has been computed yet.
    assert twin.problem_graph.stats == {
        "pair_evals": 0, "sketch_rows_built": 0,
    }
    assert twin.problem_graph._signatures.builds == 0
    result = twin.solve(probe)
    assert np.array_equal(result.predictions, warm_result.predictions)
    # No partition rebuild: the solve replayed the journal.
    assert twin.counters["full_reclusters"] == 0
    assert twin.counters["full_quality_passes"] == 0
    assert twin.counters["warm_reclusters"] == 1
    # No sketch rows derived from signatures (bulk-loaded matrix), no
    # stored problem's signature rebuilt (only the probe's own), and
    # exactly the warm instance's pairwise work.
    assert twin.problem_graph.stats["sketch_rows_built"] == 0
    assert twin.problem_graph._signatures.builds == 1
    assert twin.problem_graph.stats["pair_evals"] == warm_pairs


def test_round_trip_without_partition_state(tmp_path):
    """Saving a non-incremental instance (no PartitionState) works and
    the loaded instance keeps solving on the full path."""
    morer = MoRER(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        incremental_clustering=False,
    ).fit(make_problem_family(8))
    probe = _probes(1, seed=40)[0]
    morer.solve(probe)
    morer.save(tmp_path / "flat")
    twin = MoRER.load(tmp_path / "flat")
    assert twin._partition is None
    second = _probes(2, seed=40)[1]
    mine = morer.solve(second)
    theirs = twin.solve(second)
    assert np.array_equal(mine.predictions, theirs.predictions)
    assert twin.counters["full_reclusters"] == 1


def test_save_requires_fitted_instance(tmp_path):
    with pytest.raises(RuntimeError, match="not fitted"):
        MoRER().save(tmp_path / "nope")


def test_load_rejects_unknown_format(tmp_path):
    morer = _fit_warm(n_solves=1)
    morer.save(tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / "morer.json").read_text())
    manifest["format"] = 999
    (tmp_path / "store" / "morer.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format"):
        MoRER.load(tmp_path / "store")


def test_load_ignores_legacy_signature_flag(tmp_path):
    """Stores written while the graph still had a signature-path
    switch carry ``"use_signatures": true`` in the graph meta; they
    load and continue like the instance that saved them."""
    morer = _fit_warm(n_solves=1)
    morer.save(tmp_path / "store")
    state_path = tmp_path / "store" / "morer.json"
    state = json.loads(state_path.read_text())
    assert "use_signatures" not in state["graph"]
    state["graph"]["use_signatures"] = True
    state_path.write_text(json.dumps(state))
    twin = MoRER.load(tmp_path / "store")
    assert twin.problem_graph.version == morer.problem_graph.version
    probe = _probes(1, seed=62, prefix="L")[0]
    mine = morer.solve(probe)
    theirs = twin.solve(probe)
    assert np.array_equal(mine.predictions, theirs.predictions)
    assert mine.cluster_id == theirs.cluster_id


def test_round_trip_preserves_pending_journal(tmp_path):
    """Mutations journaled but not yet replayed must survive the
    restart: the loaded instance replays them on its first solve."""
    morer = _fit_warm(n_solves=2)
    # Out-of-band mutations after the last solve stay pending.
    extra = _probes(1, seed=60, prefix="P")[0]
    morer.problem_graph.add_problem(extra)
    victim = next(iter(make_problem_family(10)[0:1])).key
    morer.problem_graph.remove_problem(victim)
    assert morer.problem_graph.journal_since(
        morer._partition.cursor
    )
    morer.save(tmp_path / "pending")
    twin = MoRER.load(tmp_path / "pending")
    pending = twin.problem_graph.journal_since(twin._partition.cursor)
    assert [entry.op for entry in pending] == ["insert", "remove"]
    probe = _probes(1, seed=61, prefix="Q")[0]
    mine = morer.solve(probe)
    theirs = twin.solve(probe)
    assert np.array_equal(mine.predictions, theirs.predictions)
    assert twin.counters["full_reclusters"] == 0
    assert victim not in twin._partition.partition


def test_batch_solving_continues_after_restart(tmp_path):
    morer = _fit_warm(n_solves=2)
    morer.save(tmp_path / "store")
    twin = MoRER.load(tmp_path / "store")
    batch = _probes(4, seed=80, prefix="B")
    mine = morer.solve_batch(batch)
    theirs = twin.solve_batch(batch)
    for a, b in zip(mine, theirs):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.retrained == b.retrained
        assert a.new_model == b.new_model
    assert twin.counters["batch_solves"] == 1
