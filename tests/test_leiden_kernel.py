"""The CSR Leiden kernel against the dict oracle (``leiden_reference``).

Exact equality throughout: communities in list order with the same set
iteration order, partition dicts with the same key order, aggregates
with the same ``intra`` / ``strength`` dicts and float bits, and the
same RNG state afterwards.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MoRER, MoRERConfig, partition_state
from repro.core.graph import ERProblemGraph
from repro.graphcluster import (
    CSRGraph,
    Graph,
    ModularityAggregates,
    leiden,
    louvain,
)
from repro.graphcluster.louvain import local_move
from tests import leiden_reference as reference
from tests.conftest import make_regime_problems


def _random_graph(rng):
    """Tied weights, shuffled edge insertion and self-loops: every order
    the dict graph can hold. (No removal draws: nothing can remove a
    vertex any more, so no removed-and-re-added adjacency order.)"""
    nodes = [f"n{i}" for i in rng.permutation(int(rng.integers(1, 36)))]
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i:]]
    rng.shuffle(pairs)
    density = rng.uniform(0.05, 0.9)
    for a, b in pairs:
        if rng.random() < density and (a != b or rng.random() < 0.2):
            graph.add_edge(a, b, float(rng.choice([0.25, 0.5, 1.0])))
    return graph


def _mixed_partition(graph, rng):
    """Community labels as the partition state holds them: ints from
    full runs and node keys from replays."""
    nodes = list(graph.nodes())
    labels = [0, 1, 2, ("S0", "S1"), ("S2", "S3")]
    partition = {
        node: labels[int(rng.integers(0, len(labels)))] for node in nodes
    }
    order = rng.permutation(len(nodes))
    return {nodes[i]: partition[nodes[i]] for i in order}


def _as_lists(communities):
    return [list(community) for community in communities]


def _same_aggregates(mine, theirs):
    assert mine.m == theirs.m
    assert list(mine.intra.items()) == list(theirs.intra.items())
    assert list(mine.strength.items()) == list(theirs.strength.items())
    assert mine.intra_total == theirs.intra_total
    assert mine.strength_sq == theirs.strength_sq


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]))
def test_kernel_matches_the_dict_oracle(seed, resolution):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng)
    csr = CSRGraph.from_graph(graph)
    for theta in (0.01, 0.0):
        assert _as_lists(
            leiden(csr, resolution, seed, theta=theta)
        ) == _as_lists(reference.leiden(graph, resolution, seed, theta=theta))
    assert _as_lists(louvain(csr, resolution, seed)) == _as_lists(
        reference.louvain(graph, resolution, seed)
    )

    partition = _mixed_partition(graph, rng)
    mine = ModularityAggregates.from_partition(csr, dict(partition))
    theirs = reference.from_partition(graph, dict(partition))
    _same_aggregates(mine, theirs)
    assert mine.quality(resolution) == theirs.quality(resolution)

    nodes = [node for node in graph.nodes() if rng.random() < 0.3]
    for queue in (None, set(nodes)):
        mine_rng = np.random.default_rng(seed)
        theirs_rng = np.random.default_rng(seed)
        mine_aggregates = ModularityAggregates.from_partition(
            csr, partition
        )
        theirs_aggregates = reference.from_partition(graph, partition)
        moved = local_move(
            csr, dict(partition), resolution, mine_rng, nodes=queue,
            aggregates=mine_aggregates,
        )
        expected = reference.local_move(
            graph, dict(partition), resolution, theirs_rng, nodes=queue,
            aggregates=theirs_aggregates,
        )
        assert list(moved[0].items()) == list(expected[0].items())
        assert moved[1] == expected[1]
        _same_aggregates(mine_aggregates, theirs_aggregates)
        assert mine_aggregates.quality(resolution) == (
            theirs_aggregates.quality(resolution)
        )
        assert mine_rng.bit_generator.state == theirs_rng.bit_generator.state


def test_problem_graph_csr_is_its_dict_copy():
    """The array store's CSR view and ``to_graph()`` describe the same
    graph, after batch inserts."""
    problems = make_regime_problems(24, seed=1)
    graph = ERProblemGraph.build(problems[:16], "ks")
    graph.add_problems(problems[16:20])
    graph.add_problems(problems[20:])
    csr, copy_ = graph.csr(), CSRGraph.from_graph(graph.to_graph())
    assert csr.nodes == copy_.nodes == list(graph.problems())
    for name in ("indptr", "indices", "weights", "strengths"):
        assert np.array_equal(getattr(csr, name), getattr(copy_, name))
    assert csr.total == copy_.total


def test_fit_and_cov_ticks_match_the_dict_oracle(monkeypatch):
    """A benchmark-shaped 160-problem fit and 30 ``solve_batch`` ticks
    of 1-8 probes (full runs, warm replays and retrains): every full
    Leiden, every replayed local move and every aggregates pass equals
    the dict oracle run on ``to_graph()`` with the same seed."""
    seen = {"cluster": 0, "replay": 0, "aggregates": 0}

    cluster = ERProblemGraph.cluster

    def checked_cluster(self, algorithm="leiden", resolution=1.0,
                        random_state=None):
        result = cluster(self, algorithm, resolution, random_state)
        expected = reference.leiden(self.to_graph(), resolution, random_state)
        assert _as_lists(result) == _as_lists(map(set, expected))
        seen["cluster"] += 1
        return result

    move = partition_state.local_move

    def checked_move(graph, partition, resolution, rng, nodes=None,
                     aggregates=None):
        twin_partition = dict(partition)
        twin_aggregates = aggregates.copy()
        twin_rng = copy.deepcopy(rng)
        expected = reference.local_move(
            graph.to_graph(), twin_partition, resolution, twin_rng,
            nodes=nodes, aggregates=twin_aggregates,
        )
        result = move(graph, partition, resolution, rng, nodes=nodes,
                      aggregates=aggregates)
        assert list(result[0].items()) == list(expected[0].items())
        assert result[1] == expected[1]
        _same_aggregates(aggregates, twin_aggregates)
        assert rng.bit_generator.state == twin_rng.bit_generator.state
        seen["replay"] += 1
        return result

    from_partition = ModularityAggregates.from_partition.__func__

    def checked_from_partition(cls, graph, partition):
        result = from_partition(cls, graph, partition)
        _same_aggregates(
            result, reference.from_partition(graph.to_graph(), partition)
        )
        seen["aggregates"] += 1
        return result

    monkeypatch.setattr(ERProblemGraph, "cluster", checked_cluster)
    monkeypatch.setattr(partition_state, "local_move", checked_move)
    monkeypatch.setattr(ModularityAggregates, "from_partition",
                        classmethod(checked_from_partition))

    morer = MoRER(MoRERConfig(selection="cov", random_state=8401))
    morer.fit(make_regime_problems(160, seed=8401, prefix="F"))
    stream = make_regime_problems(300, seed=8402, n_regimes=8, prefix="P")
    sizes = np.random.default_rng(8403).integers(1, 9, 30).tolist()
    retrains = 0
    for size in sizes:
        batch, stream = stream[:size], stream[size:]
        results = morer.solve_batch(batch, strategy="cov")
        retrains += sum(result.retrained for result in results)
    assert morer.counters["full_reclusters"] >= 2
    assert morer.counters["warm_reclusters"] >= 10
    assert retrains >= 1
    assert seen["cluster"] == morer.counters["full_reclusters"]
    assert seen["aggregates"] == seen["cluster"]
    assert seen["replay"] >= morer.counters["warm_reclusters"]
