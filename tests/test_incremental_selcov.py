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
from tests.conftest import (
    make_problem,
    make_problem_family,
    make_regime_problems,
)

TOLERANCE = 1e-9
#: ``index_threshold`` of the two paths: the serving one from the first
#: problem on, and the exact one (the default, far above these graphs).
SERVING, EXACT = 1, 128


def _probes(n, seed=100):
    return [
        make_problem(f"X{i}", f"Y{i}", shift=0.3 * (i % 2), seed=seed + i)
        for i in range(n)
    ]


# -- graph insertion prefilter -----------------------------------------------------


def test_graph_prefilter_compares_only_candidates():
    """Past the threshold an 80-vertex graph compares a probe with its
    64 sketch-nearest vertices (the default width), not all 80."""
    problems = make_regime_problems(80)
    exact = ERProblemGraph.build(problems, "ks")
    filtered = ERProblemGraph.build(problems, "ks", index_threshold=80)
    probe = make_regime_problems(1, seed=50, prefix="X")[0]
    evals = exact.stats["pair_evals"], filtered.stats["pair_evals"]
    exact.add_problem(probe)
    filtered.add_problem(probe)
    assert exact.stats["pair_evals"] - evals[0] == 80
    assert filtered.stats["pair_evals"] - evals[1] == 64
    neighbours = filtered.to_graph().neighbors(probe.key)
    assert 0 < len(neighbours) <= 64
    # Surviving edges carry the exact sim_p, and the candidates are the
    # sketch-nearest: every problem of the probe's regime (regime 0)
    # survives the prefilter.
    for other_key, weight in neighbours.items():
        assert abs(weight - exact.similarity(probe.key, other_key)) < TOLERANCE
    assert {problems[i].key for i in range(0, 80, 6)} <= set(neighbours)


def test_graph_prefilter_auto_stays_exact_below_threshold():
    problems = make_problem_family(6)
    auto = ERProblemGraph.build(problems, "ks", index_threshold=7)
    probe = make_problem("X", "Y", seed=51)
    before = auto.stats["pair_evals"]
    auto.add_problem(probe)
    assert auto.stats["pair_evals"] - before == 6  # every vertex
    assert len(auto.to_graph().neighbors(probe.key)) == sum(
        auto.pair_similarity(probe.key, problem.key) > 0
        for problem in problems
    )
    assert len(auto._sketch_index) == 0
    assert auto._prefilter_active()  # 7 vertices: the next insert prunes


def test_graph_prefilter_engages_past_threshold():
    problems = make_regime_problems(80)
    assert not ERProblemGraph.build(
        problems[:79], "ks", index_threshold=80
    )._prefilter_active()
    graph = ERProblemGraph.build(problems, "ks", index_threshold=80)
    assert graph._prefilter_active()
    probe = make_regime_problems(1, seed=52, prefix="X")[0]
    graph.add_problem(probe)
    assert len(graph.to_graph().neighbors(probe.key)) <= 64


def test_graph_candidate_validation():
    """The graph compares against prefiltered candidates from
    ``index_threshold`` vertices on; the setting is validated."""
    with pytest.raises(ValueError, match="index_threshold"):
        ERProblemGraph("ks", index_threshold=0)
    with pytest.raises(ValueError, match="index_threshold"):
        ERProblemGraph("ks", index_threshold=-1)
    assert ERProblemGraph("ks", index_threshold=3).index_threshold == 3


def test_graph_version_counter_tracks_mutations():
    problems = make_problem_family(4)
    graph = ERProblemGraph.build(problems, "ks")
    assert graph.version == 4
    probe = make_problem("X", "Y", seed=53)
    graph.add_problem(probe)
    assert graph.version == 5 == len(graph)


# -- MoRER partition cache ---------------------------------------------------------


def _fit(index_threshold, family, **overrides):
    config = dict(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        index_threshold=index_threshold,
    )
    config.update(overrides)
    return MoRER(**config).fit(family)


def test_sel_cov_incremental_end_to_end_parity():
    """Predictions and retraining flags must match the full path on the
    seeded scenario, with clusterings within ARI 0.95 (here: 1.0)."""
    family = make_problem_family(10)
    full = _fit(EXACT, family)
    incremental = _fit(SERVING, family)
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
    """Below ``index_threshold`` (the default 128) every ``sel_cov``
    solve takes the paper's exact path: the probe is compared with
    every vertex and the graph is reclustered by a full run."""
    family = make_problem_family(8)
    default = MoRER(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
    ).fit(family)
    graph = default.problem_graph
    for step, probe in enumerate(_probes(4), start=1):
        vertices, evals = len(graph), graph.stats["pair_evals"]
        default.solve(probe)
        assert graph.stats["pair_evals"] - evals == vertices
        assert default.counters["full_reclusters"] == 1 + step
        assert default.counters["warm_reclusters"] == 0
    assert default._inserts_since_full == 0
    assert len(graph._sketch_index) == len(default.repository._sketch_index) == 0


def test_sel_cov_retraining_invalidates_partition_cache():
    family = [make_problem(f"S{i}", f"T{i}", seed=i) for i in range(4)]
    morer = _fit(SERVING, family, t_cov=0.05, b_total=80)
    retrained = False
    for probe in _probes(3, seed=200):
        result = morer.solve(probe)
        retrained = retrained or result.retrained
        if result.retrained:
            assert morer._partition is None
    assert retrained  # the scenario must actually exercise Eq. 14


def test_sel_cov_full_recluster_every_bounds_warm_streak(monkeypatch):
    monkeypatch.setattr("repro.core.morer.FULL_RECLUSTER_EVERY", 2)
    family = make_problem_family(8)
    morer = _fit(SERVING, family)
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
    morer = _fit(SERVING, family)
    morer.solve(_probes(1, seed=500)[0])
    assert morer._inserts_since_full == 1
    # An impossible reference forces the degradation valve: the next
    # recluster must run full and reset the reference to reality.
    morer._partition.reference_modularity = 10.0
    morer.solve(_probes(2, seed=500)[1])
    assert morer._inserts_since_full == 0
    assert morer._partition.reference_modularity < 10.0


def test_config_validates_incremental_knobs():
    """``index_threshold`` is the config's one incremental setting; the
    warm-recluster knobs are constants of ``repro.core.morer``."""
    with pytest.raises(ValueError, match="index_threshold"):
        MoRERConfig(index_threshold=0)
    for knob in ("recluster_tolerance", "full_recluster_every"):
        with pytest.raises(ValueError, match="unknown MoRERConfig field"):
            MoRERConfig(**{knob: 1})
    config = MoRERConfig(index_threshold=64)
    assert MoRERConfig.from_dict(config.to_dict()) == config


def test_sel_cov_incremental_with_non_leiden_stays_full():
    family = make_problem_family(6)
    morer = _fit(SERVING, family, clustering_algorithm="label_propagation")
    for probe in _probes(2, seed=600):
        morer.solve(probe)
    assert morer._inserts_since_full == 0
    assert morer._partition is None
