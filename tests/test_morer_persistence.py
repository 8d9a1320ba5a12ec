"""Whole-MoRER persistence: save/load round trips, the zero-rebuild
counters, and format versioning."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import PERSISTENCE_FORMAT, MoRER, adjusted_rand_index
from repro.core.morer import UnsupportedFormatError
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
        index_threshold=1,
    )
    config.update(overrides)
    morer = MoRER(**config).fit(make_problem_family(10))
    for probe in _probes(n_solves):
        morer.solve(probe)
    return morer


def test_round_trip_matches_continued_instance(tmp_path):
    """A loaded instance must behave byte-for-byte like the pre-save
    instance continuing in-process — including the RNG stream. Its
    timings, process-local instrumentation the store does not hold,
    count from zero."""
    morer = _fit_warm()
    morer.save(tmp_path / "store")
    twin = MoRER.load(tmp_path / "store")
    assert twin.config == morer.config
    assert twin.trained_keys == morer.trained_keys
    assert sorted(map(sorted, twin.clusters_)) == sorted(
        map(sorted, morer.clusters_)
    )
    assert twin.total_labels_spent() == morer.total_labels_spent()
    assert morer.overhead_seconds() > 0.0
    assert twin.overhead_seconds() == 0.0
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
    stored = list(twin.problem_graph._signatures)
    assert len(stored) == len(twin.problem_graph)
    result = twin.solve(probe)
    assert np.array_equal(result.predictions, warm_result.predictions)
    # No partition rebuild: the solve replayed the new row.
    assert twin.counters["full_reclusters"] == 0
    assert twin.counters["full_quality_passes"] == 0
    assert twin.counters["warm_reclusters"] == 1
    # No sketch rows derived from signatures (bulk-loaded matrix), every
    # stored row kept its signature object (only the probe's is new),
    # and exactly the warm instance's pairwise work.
    assert twin.problem_graph.stats["sketch_rows_built"] == 0
    signatures = twin.problem_graph._signatures
    assert len(signatures) == len(stored) + 1
    assert all(now is then for now, then in zip(signatures, stored))
    assert twin.problem_graph.stats["pair_evals"] == warm_pairs


def test_round_trip_without_partition_state(tmp_path):
    """Saving an instance with no PartitionState (a non-Leiden
    algorithm) works and the loaded instance keeps solving on the full
    path."""
    morer = MoRER(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        index_threshold=1, clustering_algorithm="louvain",
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


#: What a format-2 store holds that format 3 dropped: the index knobs
#: besides ``index_threshold``, in the config and the graph meta.
_FORMAT_2_KEYS = {
    "config": {
        "use_index": "auto", "search_candidates": 0,
        "incremental_clustering": "auto", "graph_candidates": 0,
    },
    "graph": {"use_index": "auto", "n_candidates": 0, "sketch_bins": 16},
}
#: What a format-3 store holds that format 4 dropped: the graph's
#: mutation journal and its version.
_FORMAT_3_KEYS = {"graph": {"version": 11, "journal": []}}
#: What a format-6 store holds that format 7 dropped: the serving
#: settings and the warm-recluster knobs in the config.
_FORMAT_6_KEYS = {
    "config": {
        "recluster_tolerance": 0.05, "full_recluster_every": 50,
        "service_max_batch_size": 16, "service_max_wait_ms": 2.0,
        "service_max_queue_depth": 256, "service_rate_limit_rps": 0.0,
        "service_rate_burst": 0.0,
    },
}


def _as_format_5_state(state):
    """A format-6 ``morer.json`` state as formats 2-5 wrote it: with the
    timings, and each problem's ``feature_names`` inline."""
    graph = state["graph"]
    names = graph.pop("feature_names")
    for problem in graph["problems"]:
        problem["feature_names"] = names[problem["feature_names"]]
    state["timings"] = {"analysis": 0.25, "clustering": 0.0625}
    return state


def _as_format_4_graph(path):
    """Rewrite ``graph.npz`` with format 4's edge arrays: one
    ``(row, earlier row)`` pair per edge instead of per-row counts."""
    with np.load(path) as stored:
        arrays = dict(stored)
    new = np.repeat(np.arange(len(arrays["edge_counts"])),
                    arrays.pop("edge_counts"))
    arrays["edge_rows"] = np.stack(
        [new, arrays.pop("edge_earlier")], axis=1).astype(np.int32)
    np.savez(path, **arrays)


def test_load_rejects_unknown_format(tmp_path):
    """An unknown format, format 2 (the last one before the index knobs
    went), format 3 (the last one with a mutation journal), format 4
    (the last one with per-edge rows and per-tree model dicts), format
    5 (the last one with timings and per-problem feature names) and
    format 6 (the last one with serving settings in the config) are
    all refused by name."""
    morer = _fit_warm(n_solves=1)
    morer.save(tmp_path / "store")
    state_path = tmp_path / "store" / "morer.json"
    saved = json.dumps(_as_format_5_state(json.loads(state_path.read_text())))
    _as_format_4_graph(tmp_path / "store" / "graph.npz")
    for fmt, extra in ((999, {}), (2, _FORMAT_2_KEYS), (3, _FORMAT_3_KEYS),
                       (4, {}), (5, {}), (6, _FORMAT_6_KEYS)):
        state = json.loads(saved)
        state["format"] = fmt
        for part, keys in extra.items():
            state[part].update(keys)
        state_path.write_text(json.dumps(state))
        with pytest.raises(
            UnsupportedFormatError,
            match=f"format {fmt} .*reads format {PERSISTENCE_FORMAT}",
        ):
            MoRER.load(tmp_path / "store")


def _store_files(store):
    """Every file of a saved store: relative path -> bytes."""
    return {
        str(path.relative_to(store)): path.read_bytes()
        for path in sorted(store.rglob("*")) if path.is_file()
    }


def test_two_fits_save_byte_identical_stores(tmp_path):
    """Two fits of the same inputs, each followed by the same solves,
    save byte-identical stores, file by file: the store holds no
    wall-clock bytes (timings are process-local and not stored) and
    nothing that follows the run's timing."""
    stores = []
    for name in ("first", "second"):
        _fit_warm().save(tmp_path / name)
        stores.append(_store_files(tmp_path / name))
    assert stores[0].keys() == stores[1].keys()
    assert "morer.json" in stores[0]
    for name, data in stores[0].items():
        assert data == stores[1][name], name
    state = json.loads(stores[0]["morer.json"])
    assert "timings" not in state
    names = state["graph"]["feature_names"]
    assert len(names) == len({tuple(listed) for listed in names}) == 1
    assert {p["feature_names"] for p in state["graph"]["problems"]} == {0}


def test_snapshot_holds_nothing_derivable(tmp_path):
    """The store holds each fact once. ``graph.npz`` has no signature
    statistics, no per-edge new row (each row's edge count instead) and
    no memoized pair that an edge carries with the same value (the
    pairs at or below ``min_similarity`` remain); each model file holds
    its forest as one ensemble, with no per-tree estimator dict."""
    morer = _fit_warm(min_similarity=0.8)
    morer.save(tmp_path / "store")
    for entry in morer.repository:
        state = json.loads(
            (tmp_path / "store" / "repository"
             / f"model_{entry.cluster_id}.json").read_text()
        )
        assert state["__class__"] == "RandomForestClassifier"
        assert set(state["fitted"]) == {"classes_", "n_features_in_"}
        assert len(state["trees"]["n_nodes"]) == entry.model.n_estimators
        assert "__estimator__" not in json.dumps(state)
    with np.load(tmp_path / "store" / "graph.npz") as arrays:
        assert not [name for name in arrays.files if name.startswith("sig_")]
        assert "edge_rows" not in arrays.files
        counts = arrays["edge_counts"]
        assert len(counts) == len(morer.problem_graph)
        assert counts.sum() == len(arrays["edge_earlier"]) == len(
            arrays["edge_weights"]
        )
        new = np.repeat(np.arange(len(counts)), counts)
        edges = {
            frozenset(pair): weight for pair, weight in zip(
                zip(new.tolist(), arrays["edge_earlier"].tolist()),
                arrays["edge_weights"],
            )
        }
        assert arrays["pair_rows"].shape[0] > 0
        for pair, value in zip(
            arrays["pair_rows"].tolist(), arrays["pair_values"]
        ):
            assert edges.get(frozenset(pair)) != value


def _solve_ticks(morer, ticks):
    """Solve each tick as one ``solve_batch`` call; the decisions."""
    return [
        (
            result.cluster_id, result.retrained, result.new_model,
            result.labels_spent, result.predictions.tolist(),
        )
        for tick in ticks
        for result in morer.solve_batch(tick, strategy="cov")
    ]


def _assert_restored_exactly(live, twin):
    """The loaded graph equals the live one bit for bit: features, the
    edge store, node order, adjacency dicts, strengths, total weight,
    pair cache, signature statistics and sketch rows; and every loaded
    model equals the saved one and predicts the same."""
    graph, restored = live.problem_graph, twin.problem_graph
    stored = list(restored._signatures)
    for key, problem in graph.problems().items():
        assert np.array_equal(restored.problem(key).features, problem.features)
    for mine, theirs in zip(graph._edges(), restored._edges()):
        assert theirs.dtype == mine.dtype
        assert np.array_equal(theirs, mine)
    assert restored._strength.tobytes() == graph._strength.tobytes()
    assert restored._total == graph._total
    probe = _probes(1, seed=77, prefix="M")[0].features
    for entry in live.repository:
        model = twin.repository.entries[entry.cluster_id].model
        assert model.to_dict() == entry.model.to_dict()
        assert np.array_equal(
            model.predict_proba(probe), entry.model.predict_proba(probe)
        )
    mine, theirs = graph.to_graph(), restored.to_graph()
    nodes = list(mine.nodes())
    assert list(theirs.nodes()) == nodes
    for key in nodes:
        assert list(theirs.neighbors(key).items()) == list(
            mine.neighbors(key).items()
        ), key
    for key in nodes:
        assert theirs.strength(key) == mine.strength(key)
    assert theirs.total_weight() == mine.total_weight()
    # The same pairs are memoized: every pair of stored problems reads
    # the same value, and a pair either side has to compute the other
    # has to compute too.
    evals = graph.stats["pair_evals"], restored.stats["pair_evals"]
    for i, key_a in enumerate(nodes):
        for key_b in nodes[i + 1:]:
            assert restored.pair_similarity(key_a, key_b) == (
                graph.pair_similarity(key_a, key_b)
            )
    assert (
        graph.stats["pair_evals"] - evals[0]
        == restored.stats["pair_evals"] - evals[1]
    )
    # Each row kept the signature it was restored with, over the
    # problem's own features, with the live row's statistics.
    assert len(restored._signatures) == len(stored) == len(nodes)
    for row, key in enumerate(nodes):
        signature = restored._signatures[row]
        assert signature is stored[row]
        assert signature.features is restored.problem(key).features
        live_signature = graph._signatures[row]
        assert np.array_equal(
            signature.sorted_columns, live_signature.sorted_columns
        )
        assert np.array_equal(signature.self_cdf, live_signature.self_cdf)
    mine_ids, mine_rows = graph._sketch_index.export_rows()
    theirs_ids, theirs_rows = restored._sketch_index.export_rows()
    assert theirs_ids == mine_ids
    assert np.array_equal(theirs_rows, mine_rows)


def _assert_decides_identically(live, twin, seed):
    ticks = [_probes(3, seed=seed + 10 * i, prefix=f"T{i}_") for i in range(10)]
    assert _solve_ticks(twin, ticks) == _solve_ticks(live, ticks)
    assert twin.total_labels_spent() == live.total_labels_spent()
    assert twin._rng.bit_generator.state == live._rng.bit_generator.state


def test_restore_is_exact_after_a_plain_fit(tmp_path):
    """Creation-order edges give back every adjacency order, strength
    and the total weight of a freshly fitted graph, and the loaded
    instance then decides as the never-saved one does."""
    morer = MoRER(
        b_total=400, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        index_threshold=1,
    ).fit(make_problem_family(40))
    morer.save(tmp_path / "store")
    twin = MoRER.load(tmp_path / "store")
    _assert_restored_exactly(morer, twin)
    _assert_decides_identically(morer, twin, seed=3000)


def test_restore_is_exact_after_prefiltered_ticks(tmp_path):
    """Past the sketch prefilter a probe's adjacency follows its
    sketch-nearest candidates, not the vertex order; the loaded graph
    keeps that order for every vertex."""
    morer = _fit_warm(n_solves=0)
    for i in range(6):
        morer.solve_batch(_probes(4, seed=500 + 10 * i, prefix=f"P{i}_"))
    morer.save(tmp_path / "store")
    twin = MoRER.load(tmp_path / "store")
    _assert_restored_exactly(morer, twin)
    _assert_decides_identically(morer, twin, seed=4000)


def test_round_trip_replays_rows_past_the_cursor(tmp_path):
    """Rows added after the last solve lie past the partition cursor;
    they survive the restart, and the loaded instance replays them on
    its first solve, with no full recluster, deciding like the live
    one."""
    morer = _fit_warm(n_solves=2)
    extra = _probes(3, seed=60, prefix="P")
    morer.problem_graph.add_problems(extra)
    cursor = morer._partition.cursor
    assert len(morer.problem_graph) == cursor + len(extra)
    morer.save(tmp_path / "pending")
    twin = MoRER.load(tmp_path / "pending")
    assert twin._partition.cursor == cursor
    assert list(twin.problem_graph.problems())[cursor:] == [
        problem.key for problem in extra
    ]
    probe = _probes(1, seed=61, prefix="Q")[0]
    mine = morer.solve(probe)
    theirs = twin.solve(probe)
    assert np.array_equal(mine.predictions, theirs.predictions)
    assert (theirs.cluster_id, theirs.retrained, theirs.new_model) == (
        mine.cluster_id, mine.retrained, mine.new_model
    )
    assert twin.counters["full_reclusters"] == 0
    assert twin.counters["warm_reclusters"] == 1
    assert twin._partition.partition == morer._partition.partition
    assert twin._partition.cursor == len(twin.problem_graph)
    _assert_decides_identically(morer, twin, seed=5000)


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


_SAVE_INGEST_SHAPED = """
import sys
from repro.core import MoRER, MoRERConfig
from tests.conftest import make_regime_problems

morer = MoRER(MoRERConfig(selection="cov", random_state=8401))
morer.fit(make_regime_problems(160, seed=8401, prefix="F"))
stream = make_regime_problems(12, seed=8402, n_regimes=8, prefix="P")
for batch in (stream[:4], stream[4:5], stream[5:]):
    morer.solve_batch(batch, strategy="cov")
morer.save(sys.argv[1])
"""


def test_graph_store_bytes_ignore_the_hash_seed(tmp_path):
    """An ingest-shaped fit past ``index_threshold`` plus three cov
    ticks, saved in processes under two string-hash seeds, writes a
    byte-identical store: the graph folds its vertices into the sketch
    matrix in insertion order, not in the iteration order of a set of
    keys, so ``graph.npz``'s ``sketch_order`` and ``sketch_rows`` agree;
    the persisted partition lists (and its aggregates sum) the vertices
    in graph row order, not in the order of the community sets, so
    ``morer.json`` agrees; and so does every repository file."""
    root = Path(__file__).resolve().parents[1]
    stored = []
    for hash_seed in (0, 1):
        env = dict(
            os.environ, PYTHONHASHSEED=str(hash_seed),
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        store = tmp_path / f"store-{hash_seed}"
        subprocess.run(
            [sys.executable, "-c", _SAVE_INGEST_SHAPED, str(store)],
            env=env, cwd=root, check=True, timeout=300,
        )
        stored.append({
            str(path.relative_to(store)): path.read_bytes()
            for path in sorted(store.rglob("*")) if path.is_file()
        })
        with np.load(store / "graph.npz") as arrays:
            assert "sketch_rows" in arrays.files
    assert {"graph.npz", "morer.json", "repository/manifest.json"} <= set(
        stored[0]
    )
    assert sorted(stored[0]) == sorted(stored[1])
    for name, data in stored[0].items():
        assert data == stored[1][name], name
