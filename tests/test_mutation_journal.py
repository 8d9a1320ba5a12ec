"""Graph-row tests: the rows as the mutation record, row-replay
exactness (also on the prefiltered path, where candidates come in
sketch order), batched insertion/solving, timing attribution, and a
property-style suite driving random interleaved solve / ``solve_batch``
sequences against the full-recluster reference."""

import numpy as np
import pytest

from repro.core import (
    ERProblemGraph,
    MoRER,
    MoRERConfig,
    PartitionState,
    adjusted_rand_index,
    partition_state,
)
from repro.graphcluster import (
    ModularityAggregates,
    modularity,
    partition_from_communities,
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


def _probes(n, seed=100, prefix="X"):
    return [
        make_problem(
            f"{prefix}{i}", f"{prefix}{i}b", shift=0.3 * (i % 2),
            seed=seed + i,
        )
        for i in range(n)
    ]


def _fit(index_threshold, family, **overrides):
    config = dict(
        b_total=200, b_min=10, selection="cov", t_cov=0.6, random_state=0,
        index_threshold=index_threshold,
    )
    config.update(overrides)
    return MoRER(**config).fit(family)


# -- rows as the mutation record ---------------------------------------------------


def test_journal_records_mutations_with_edges():
    """The rows are the graph's mutation record: ``version`` counts
    them, and a new row's edges are exactly the ones its insertion
    created — all to earlier rows, each the last entry of the earlier
    row's neighbour list, weighted by the pair's §4.2 similarity."""
    graph = ERProblemGraph.build(make_problem_family(5), "ks")
    assert graph.version == 5
    probe = make_problem("X", "Y", seed=50)
    graph.add_problem(probe)
    assert graph.version == 6
    csr = graph.csr()
    assert csr.index[probe.key] == 5
    neighbours = csr.neighbors(5).tolist()
    assert neighbours and all(other < 5 for other in neighbours)
    for other, weight in zip(neighbours, csr.weights[csr.indptr[5]:]):
        assert csr.neighbors(other)[-1] == 5
        assert abs(weight - graph.test.problem_similarity(
            probe.features, graph.problem(csr.nodes[other]).features
        )) < TOLERANCE


def test_replay_tracks_modularity_exactly_through_churn():
    """Replayed aggregates must equal a fresh O(edges) modularity pass
    after batched and single inserts."""
    graph = ERProblemGraph.build(make_problem_family(8), "ks")
    clusters = graph.cluster("leiden", 1.0, 0)
    state = PartitionState.from_full_run(
        graph, partition_from_communities(clusters)
    )
    probes = _probes(5, seed=70)
    graph.add_problems(probes[:3])
    graph.add_problem(probes[3])
    graph.add_problem(probes[4])
    outcome = state.replay(graph, 1.0, 0)
    assert set(outcome.partition) == set(graph.problems())
    communities = {}
    for node, label in outcome.partition.items():
        communities.setdefault(label, set()).add(node)
    full = modularity(graph.to_graph(), list(communities.values()), 1.0)
    assert abs(outcome.quality - full) < TOLERANCE
    assert outcome.inserts == 5
    # Rejecting the outcome must leave the state untouched.
    assert set(state.partition) != set(graph.problems())
    state.accept(outcome)
    assert state.cursor == graph.version
    assert state.inserts_since_full == 5


def test_replay_folds_rows_in_candidate_order(monkeypatch):
    """On the prefiltered path (``index_threshold=1``) a probe meets its
    candidates in sketch order, not row order, and its edges keep that
    order. The aggregates (and partition) replay hands to the local move
    equal, bit for bit, folding the snapshot's creation-order edges
    (``edge_counts`` / ``edge_earlier`` / ``edge_weights``) of the rows
    past the cursor through ``ModularityAggregates.add_node``."""
    handed = []
    move = partition_state.local_move

    def spy(graph, partition, resolution, rng, nodes=None, aggregates=None):
        state = morer._partition
        handed.append((
            state.cursor, len(graph), dict(state.partition),
            state.aggregates.copy(), dict(partition), aggregates.copy(),
        ))
        return move(graph, partition, resolution, rng, nodes=nodes,
                    aggregates=aggregates)

    monkeypatch.setattr(partition_state, "local_move", spy)
    morer = MoRER(MoRERConfig(
        selection="cov", random_state=9, index_threshold=1,
    )).fit(make_regime_problems(24, seed=9, prefix="F"))
    stream = make_regime_problems(40, seed=10, n_regimes=8, prefix="P")
    for size in (3, 1, 5, 2, 4, 6, 3):
        batch, stream = stream[:size], stream[size:]
        morer.solve_batch(batch)
    assert len(handed) >= 3
    _, arrays = morer.problem_graph.export_state()
    keys = list(morer.problem_graph.problems())
    edges = {}
    new_rows = np.repeat(np.arange(len(keys)), arrays["edge_counts"])
    for new, old, weight in zip(
        new_rows.tolist(), arrays["edge_earlier"].tolist(),
        arrays["edge_weights"].tolist(),
    ):
        edges.setdefault(new, []).append((old, weight))
    assert any(
        [old for old, _ in edges.get(row, [])]
        != sorted(old for old, _ in edges.get(row, []))
        for row in range(24, len(keys))
    )
    for cursor, n, partition, aggregates, got_partition, got in handed:
        for row in range(cursor, n):
            partition[keys[row]] = keys[row]
            aggregates.add_node(keys[row], [
                (keys[old], weight) for old, weight in edges.get(row, [])
            ], partition)
        assert list(got_partition.items()) == list(partition.items())
        assert got.m == aggregates.m
        assert list(got.intra.items()) == list(aggregates.intra.items())
        assert list(got.strength.items()) == list(
            aggregates.strength.items()
        )
        assert got.intra_total == aggregates.intra_total
        assert got.strength_sq == aggregates.strength_sq


def test_aggregates_from_partition_matches_modularity():
    graph = ERProblemGraph.build(make_problem_family(6), "ks")
    partition = partition_from_communities(graph.cluster("leiden", 1.0, 0))
    aggregates = ModularityAggregates.from_partition(graph.csr(), partition)
    assert abs(
        aggregates.quality(1.0)
        - modularity(graph.to_graph(), list(_group(partition).values()), 1.0)
    ) < TOLERANCE


# -- batched insertion -------------------------------------------------------------


def test_add_problems_matches_sequential_exact_mode():
    """A KS batch insert is bit-identical to one-at-a-time inserts: the
    same adjacency order, edge weight bits and rows."""
    family = make_problem_family(6)
    probes = _probes(4, seed=80)
    sequential = ERProblemGraph.build(family, "ks")
    batched = ERProblemGraph.build(family, "ks")
    for probe in probes:
        sequential.add_problem(probe)
    batched.add_problems(probes)
    assert list(batched.problems()) == list(sequential.problems())
    batched_graph, sequential_graph = batched.to_graph(), sequential.to_graph()
    for key in sequential.problems():
        assert list(batched_graph.neighbors(key).items()) == list(
            sequential_graph.neighbors(key).items()
        )
    assert list(batched_graph.edges()) == list(sequential_graph.edges())
    assert batched.stats == sequential.stats


def test_add_problems_edges_follow_candidate_order():
    """Edges follow candidate order — existing vertices, then earlier
    batch members — so each row's neighbour list starts with its edges
    to earlier rows in that order, before the edges later rows
    brought."""
    family = make_problem_family(6)
    keys = [problem.key for problem in family]
    graph = ERProblemGraph.build(family[:3], "ks")
    graph.add_problem(family[3])
    graph.add_problems(family[4:])
    adjacency = graph.to_graph()
    assert list(adjacency.neighbors(keys[3])) == keys[:3] + keys[4:]
    assert list(adjacency.neighbors(keys[4])) == keys[:4] + [keys[5]]
    assert list(adjacency.neighbors(keys[5])) == keys[:5]


def test_add_problems_prefilters_through_the_index():
    family = make_regime_problems(80)
    graph = ERProblemGraph.build(family, "ks", index_threshold=1)
    probes = make_regime_problems(3, seed=81, prefix="X")
    before = graph.stats["pair_evals"]
    graph.add_problems(probes)
    for probe in probes:
        degree = len(graph.to_graph().neighbors(probe.key))
        # <= the 64 candidates + edges to/from the other two members
        assert degree <= 64 + 2
    # Each member meets its 64 sketch-nearest vertices (the default
    # width at 80 vertices) and the batch's 3 inner pairs run once:
    # fewer comparisons than the 3 * 80 + 3 of the exact path.
    assert graph.stats["pair_evals"] - before == 3 * 64 + 3


def test_add_problems_rejects_duplicates():
    graph = ERProblemGraph.build(make_problem_family(4), "ks")
    probe = make_problem("X", "Y", seed=82)
    with pytest.raises(ValueError, match="already in the graph"):
        graph.add_problems([probe, probe])
    graph.add_problem(probe)
    with pytest.raises(ValueError, match="already in the graph"):
        graph.add_problems([make_problem("W", "V", seed=83), probe])


def test_rejected_insert_leaves_graph_untouched():
    """A member whose feature count differs from the graph's is
    rejected before the first mutation — on every insertion path,
    including the MoRER solves that reach it."""
    morer = _fit(SERVING, make_problem_family(8))
    graph = morer.problem_graph
    # C2ST has no batch matrix to trip over the mismatch up front.
    c2st = ERProblemGraph.build(make_problem_family(3), "c2st")
    good = make_problem("G", "Gb", seed=84)
    bad = make_problem("Xa", "Xb", n_features=3, seed=85)
    calls = (
        (graph, lambda: graph.add_problem(bad)),
        (graph, lambda: graph.add_problems([good, bad])),
        (c2st, lambda: c2st.add_problems([good, bad])),
        (graph, lambda: ERProblemGraph.build([good, bad], "ks")),
        (graph, lambda: morer.solve(bad)),
        (graph, lambda: morer.solve_batch([good, bad])),
    )
    for target, call in calls:
        version = target.version
        with pytest.raises(ValueError, match="share the feature space"):
            call()
        assert set(target.to_graph().nodes()) == set(target.problems())
        assert good.key not in target and bad.key not in target
        assert target.version == version
    morer.solve(good)
    assert set(graph.to_graph().nodes()) == set(graph.problems())
    assert {key for cluster in morer.clusters_ for key in cluster} == set(
        graph.problems()
    )


# -- solve_batch -------------------------------------------------------------------


def test_solve_batch_matches_sequential_decisions():
    family = make_problem_family(10)
    sequential = _fit(SERVING, family)
    batched = _fit(SERVING, family)
    probes = _probes(8, seed=90, prefix="B")
    singles = [sequential.solve(p) for p in probes]
    results = batched.solve_batch(probes)
    assert len(results) == len(probes)
    for single, result in zip(singles, results):
        assert single.retrained == result.retrained
        assert single.new_model == result.new_model
    assert adjusted_rand_index(
        sequential.clusters_, batched.clusters_
    ) >= 0.97
    # One batch = one warm recluster, not one per probe.
    assert batched.counters["warm_reclusters"] == 1
    assert batched.counters["batch_solves"] == 1


def test_solve_batch_base_strategy_loops_search():
    family = make_problem_family(8)
    morer = _fit(SERVING, family, selection="base")
    probes = _probes(3, seed=91, prefix="C")
    results = morer.solve_batch(probes)
    for probe, result in zip(probes, results):
        single = morer.solve(probe, strategy="base")
        assert np.array_equal(result.predictions, single.predictions)
    assert len(morer.problem_graph) == 8  # no integration under base


def test_solve_batch_timing_attribution_consistent():
    """Per-probe overhead shares must sum to the wall-clock overhead —
    charged once, not double-counted."""
    family = make_problem_family(10)
    morer = _fit(SERVING, family)
    probes = _probes(6, seed=92, prefix="D")
    before = morer.overhead_seconds()
    results = morer.solve_batch(probes)
    elapsed = morer.overhead_seconds() - before
    attributed = sum(result.overhead_seconds for result in results)
    assert attributed == pytest.approx(elapsed, rel=1e-6, abs=1e-9)
    # Sequential solve attributes its whole integration the same way.
    probe = _probes(1, seed=93, prefix="E")[0]
    before = morer.overhead_seconds()
    result = morer.solve(probe)
    assert result.overhead_seconds == pytest.approx(
        morer.overhead_seconds() - before, rel=1e-6, abs=1e-9
    )


def test_solve_batch_empty_and_unfitted():
    morer = MoRER(selection="cov")
    with pytest.raises(RuntimeError, match="not fitted"):
        morer.solve_batch([make_problem("X", "Y")])
    fitted = _fit(SERVING, make_problem_family(4))
    assert fitted.solve_batch([]) == []


# -- modularity stays off the hot path ---------------------------------------------


def test_no_full_modularity_pass_on_warm_solves(monkeypatch):
    """The degradation check reads the delta-tracked aggregates: a warm
    solve must not call ``modularity()`` at all (call-count test)."""
    family = make_problem_family(10)
    morer = _fit(SERVING, family)
    calls = {"n": 0}
    import importlib
    # Patch the defining module and the package's re-export (the
    # Leiden module no longer imports it).
    package = importlib.import_module("repro.graphcluster")
    quality_module = importlib.import_module("repro.graphcluster.quality")

    original = quality_module.modularity

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(quality_module, "modularity", counted)
    monkeypatch.setattr(package, "modularity", counted)
    full_passes = morer.counters["full_quality_passes"]
    for probe in _probes(4, seed=95, prefix="F"):
        morer.solve(probe)
    assert calls["n"] == 0
    assert morer.counters["full_quality_passes"] == full_passes
    assert morer.counters["warm_reclusters"] >= 4


# -- property-style mixed churn ----------------------------------------------------


def test_mixed_churn_random_interleavings():
    """Random interleaved solve / solve_batch sequences: the
    row-replayed instance must track the full-recluster reference
    (ARI >= 0.97, identical retraining decisions) while keeping its
    row cursor coherent after every step."""
    rng = np.random.default_rng(7)
    family = make_problem_family(12)
    incremental = _fit(SERVING, family)
    reference = _fit(EXACT, family)
    probe_pool = _probes(18, seed=500, prefix="G")
    next_probe = 0
    for _step in range(12):
        op = rng.choice(["batch", "solve"])
        if op == "batch":
            size = int(rng.integers(2, 5))
            batch = probe_pool[next_probe:next_probe + size]
            if not batch:
                break
            next_probe += len(batch)
            batch_results = incremental.solve_batch(batch)
            reference_results = [reference.solve(p) for p in batch]
            for got, want in zip(batch_results, reference_results):
                assert got.retrained == want.retrained
                assert got.new_model == want.new_model
        else:
            if next_probe >= len(probe_pool):
                break
            probe = probe_pool[next_probe]
            next_probe += 1
            got = incremental.solve(probe)
            want = reference.solve(probe)
            assert got.retrained == want.retrained
            assert got.new_model == want.new_model
        # Clustering quality tracks the full reference.
        assert adjusted_rand_index(
            incremental.clusters_, reference.clusters_
        ) >= 0.97
        # Row-cursor coherence after every step: every step reclusters,
        # so a live partition covers exactly the graph's rows and its
        # delta-tracked quality matches a fresh full pass.
        graph = incremental.problem_graph
        state = incremental._partition
        if state is not None:
            assert state.cursor == len(graph)
            assert set(state.partition) == set(graph.problems())
            assert abs(
                state.aggregates.quality(1.0)
                - modularity(
                    graph.to_graph(), list(_group(state.partition).values()),
                    1.0,
                )
            ) < TOLERANCE
    assert next_probe > 8  # the scenario consumed a real stream


def _group(partition):
    groups = {}
    for node, label in partition.items():
        groups.setdefault(label, set()).add(node)
    return groups
