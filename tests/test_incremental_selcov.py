"""Incremental ``sel_cov`` tests: graph prefilter, partition cache,
coherent invalidation, and end-to-end parity with the full path."""

import numpy as np
import pytest

from repro.core import (
    ERProblemGraph,
    MoRER,
    MoRERConfig,
    adjusted_rand_index,
)
from tests.conftest import make_problem, make_problem_family

TOLERANCE = 1e-9


def _probes(n, seed=100):
    return [
        make_problem(f"X{i}", f"Y{i}", shift=0.3 * (i % 2), seed=seed + i)
        for i in range(n)
    ]


# -- graph insertion prefilter -----------------------------------------------------


def test_graph_prefilter_compares_only_candidates():
    problems = make_problem_family(8)
    exact = ERProblemGraph.build(problems, "ks", use_index=False)
    filtered = ERProblemGraph.build(
        problems, "ks", use_index=True, n_candidates=3
    )
    probe = make_problem("X", "Y", seed=50)
    exact.add_problem(probe)
    filtered.add_problem(probe)
    exact_degree = len(exact.to_graph().neighbors(probe.key))
    filtered_degree = len(filtered.to_graph().neighbors(probe.key))
    assert exact_degree == 8
    assert filtered_degree <= 3
    # Surviving edges carry the exact sim_p, and the candidates are the
    # sketch-nearest — which, for a probe matching regime 0, should
    # include same-regime problems.
    for other_key, weight in filtered.to_graph().neighbors(probe.key).items():
        assert abs(weight - exact.similarity(probe.key, other_key)) < TOLERANCE


def test_graph_prefilter_auto_stays_exact_below_threshold():
    problems = make_problem_family(6)
    auto = ERProblemGraph.build(problems, "ks", index_threshold=64)
    exact = ERProblemGraph.build(problems, "ks", use_index=False)
    probe = make_problem("X", "Y", seed=51)
    auto.add_problem(probe)
    exact.add_problem(probe)
    assert not auto._prefilter_active()
    assert len(auto.to_graph().neighbors(probe.key)) == len(
        exact.to_graph().neighbors(probe.key)
    )


def test_graph_prefilter_engages_past_threshold():
    problems = make_problem_family(8)
    graph = ERProblemGraph.build(
        problems, "ks", index_threshold=8, n_candidates=2
    )
    assert graph._prefilter_active()
    probe = make_problem("X", "Y", seed=52)
    graph.add_problem(probe)
    assert len(graph.to_graph().neighbors(probe.key)) <= 2
    # The sketch index follows removals.
    graph.remove_problem(probe.key)
    assert probe.key not in graph._sketch_index
    assert len(graph) == 8


def test_graph_version_counter_tracks_mutations():
    problems = make_problem_family(4)
    graph = ERProblemGraph.build(problems, "ks")
    assert graph.version == 4
    probe = make_problem("X", "Y", seed=53)
    graph.add_problem(probe)
    assert graph.version == 5
    graph.remove_problem(probe.key)
    assert graph.version == 6


def test_graph_candidate_validation():
    with pytest.raises(ValueError, match="n_candidates"):
        ERProblemGraph("ks", n_candidates=-1)
    with pytest.raises(ValueError, match="use_index"):
        ERProblemGraph("ks", use_index="sometimes")


# -- MoRER partition cache ---------------------------------------------------------


def _fit(incremental, family, **overrides):
    config = dict(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        incremental_clustering=incremental,
    )
    config.update(overrides)
    return MoRER(**config).fit(family)


def test_sel_cov_incremental_end_to_end_parity():
    """Predictions and retraining flags must match the full path on the
    seeded scenario, with clusterings within ARI 0.95 (here: 1.0)."""
    family = make_problem_family(10)
    full = _fit(False, family)
    incremental = _fit(True, family, use_index=True, graph_candidates=6)
    for probe in _probes(6):
        result_full = full.solve(probe)
        result_incremental = incremental.solve(probe)
        assert np.array_equal(
            result_full.predictions, result_incremental.predictions
        )
        assert result_full.retrained == result_incremental.retrained
        assert result_full.new_model == result_incremental.new_model
        assert adjusted_rand_index(
            full.clusters_, incremental.clusters_
        ) >= 0.95
    assert incremental._inserts_since_full >= 1  # warm starts engaged


def test_sel_cov_auto_stays_full_below_threshold():
    """incremental_clustering='auto' (the default) must keep the full
    recluster path — and byte-identical results — at paper scale."""
    family = make_problem_family(8)
    default = _fit("auto", family)
    full = _fit(False, family)
    for probe in _probes(4):
        result_default = default.solve(probe)
        result_full = full.solve(probe)
        assert np.array_equal(
            result_default.predictions, result_full.predictions
        )
        assert result_default.retrained == result_full.retrained
    assert default._inserts_since_full == 0
    assert sorted(map(sorted, default.clusters_)) == sorted(
        map(sorted, full.clusters_)
    )


def test_sel_cov_retraining_invalidates_partition_cache():
    family = [make_problem(f"S{i}", f"T{i}", seed=i) for i in range(4)]
    morer = _fit(True, family, t_cov=0.05, b_total=80)
    retrained = False
    for probe in _probes(3, seed=200):
        result = morer.solve(probe)
        retrained = retrained or result.retrained
        if result.retrained:
            assert morer._partition is None
    assert retrained  # the scenario must actually exercise Eq. 14


def test_sel_cov_out_of_band_removal_survives_warm_start():
    """Regression: an out-of-band ``remove_problem`` used to desync the
    version counter and force a full recluster; the journal now replays
    it (drop the vertex, queue its neighbours) and the seed survives."""
    family = make_problem_family(8)
    morer = _fit(True, family)
    morer.solve(_probes(1)[0])
    assert morer._incremental_clustering_active()
    full_runs = morer.counters["full_reclusters"]
    victim = next(iter(morer.problem_graph.problems()))
    morer.problem_graph.remove_problem(victim)
    assert morer._incremental_clustering_active()
    result = morer.solve(_probes(2, seed=300)[1])
    assert result.predictions is not None
    # The removal rode the warm path: no extra full run, the streak
    # kept absorbing, and the victim is gone from the partition.
    assert morer.counters["full_reclusters"] == full_runs
    assert morer._inserts_since_full == 2
    assert all(victim not in cluster for cluster in morer.clusters_)
    assert victim not in morer._partition.partition


def test_sel_cov_journal_trim_forces_full_recluster():
    """Replay is only possible while the journal reaches the cursor."""
    family = make_problem_family(8)
    morer = _fit(True, family)
    morer.solve(_probes(1)[0])
    assert morer._incremental_clustering_active()
    graph = morer.problem_graph
    graph.add_problem(_probes(3, seed=310)[2])
    graph.trim_journal(graph.version)  # discard before MoRER replays
    assert not morer._incremental_clustering_active()
    full_runs = morer.counters["full_reclusters"]
    morer.solve(_probes(2, seed=300)[1])
    assert morer.counters["full_reclusters"] == full_runs + 1
    assert morer._incremental_clustering_active()  # cache rebuilt


def test_sel_cov_full_recluster_every_bounds_warm_streak():
    family = make_problem_family(8)
    morer = _fit(True, family, full_recluster_every=2)
    streaks = []
    for probe in _probes(5, seed=400):
        morer.solve(probe)
        streaks.append(morer._inserts_since_full)
    # Streak resets (0 after a forced full run) at least once past the
    # first two incremental solves.
    assert 0 in streaks[1:]
    assert max(streaks) <= 2


def test_sel_cov_modularity_degradation_falls_back():
    family = make_problem_family(8)
    morer = _fit(True, family)
    morer.solve(_probes(1, seed=500)[0])
    assert morer._inserts_since_full == 1
    # An impossible reference forces the degradation valve: the next
    # recluster must run full and reset the reference to reality.
    morer._partition.reference_modularity = 10.0
    morer.solve(_probes(2, seed=500)[1])
    assert morer._inserts_since_full == 0
    assert morer._partition.reference_modularity < 10.0


def test_config_validates_incremental_knobs():
    with pytest.raises(ValueError, match="incremental_clustering"):
        MoRERConfig(incremental_clustering="sometimes")
    with pytest.raises(ValueError, match="recluster_tolerance"):
        MoRERConfig(recluster_tolerance=-0.1)
    with pytest.raises(ValueError, match="full_recluster_every"):
        MoRERConfig(full_recluster_every=0)
    with pytest.raises(ValueError, match="graph_candidates"):
        MoRERConfig(graph_candidates=-1)
    config = MoRERConfig(
        incremental_clustering=True, recluster_tolerance=0.1,
        full_recluster_every=10, graph_candidates=32,
    )
    assert MoRERConfig.from_dict(config.to_dict()) == config


def test_sel_cov_incremental_with_non_leiden_stays_full():
    family = make_problem_family(6)
    morer = _fit(True, family, clustering_algorithm="label_propagation")
    for probe in _probes(2, seed=600):
        morer.solve(probe)
    assert morer._inserts_since_full == 0
    assert morer._partition is None
    # No consumer: the journal must not accumulate either.
    assert morer.problem_graph.journal_since(
        morer.problem_graph.version
    ) == []
