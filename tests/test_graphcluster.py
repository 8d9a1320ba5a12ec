"""Graph structure + community detection tests (networkx as oracle)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphcluster import (
    CSRGraph,
    Graph,
    bridges,
    connected_components,
    cpm_quality,
    edge_betweenness,
    girvan_newman,
    label_propagation,
    leiden,
    louvain,
    min_cut_edges,
    modularity,
    partition_from_communities,
    stoer_wagner,
    UnionFind,
)
from repro.graphcluster.louvain import local_move
from tests.leiden_reference import frozenset_edges


def planted_graph(n_communities=3, size=8, p_in=0.9, p_out=0.02, seed=0):
    rng = np.random.default_rng(seed)
    g = Graph()
    nodes = [
        [f"c{c}_{i}" for i in range(size)] for c in range(n_communities)
    ]
    for community in nodes:
        for i in range(size):
            g.add_node(community[i])
            for j in range(i + 1, size):
                if rng.random() < p_in:
                    g.add_edge(community[i], community[j], 1.0)
    for a in range(n_communities):
        for b in range(a + 1, n_communities):
            for u in nodes[a]:
                for v in nodes[b]:
                    if rng.random() < p_out:
                        g.add_edge(u, v, 0.2)
    return g, nodes


# -- Graph structure -------------------------------------------------------------


def test_graph_add_and_query():
    g = Graph()
    g.add_edge("a", "b", 2.0)
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.edge_weight("a", "b") == 2.0
    assert len(g) == 2


def test_graph_rejects_negative_weights():
    with pytest.raises(ValueError, match="non-negative"):
        Graph().add_edge("a", "b", -1.0)


def test_graph_strength_counts_self_loops_twice():
    g = Graph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("a", "a", 2.0)
    assert g.strength("a") == pytest.approx(5.0)
    assert g.total_weight() == pytest.approx(3.0)


def test_graph_subgraph_induced():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    sub = g.subgraph({"a", "b"})
    assert sub.has_edge("a", "b")
    assert len(sub) == 2 and sub.number_of_edges() == 1


def test_graph_aggregate_sums_weights():
    g = Graph.from_edges([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)])
    agg, group = CSRGraph.from_graph(g).aggregate([0, 0, 1])
    assert group.tolist() == [0, 0, 1]
    agg = agg.to_graph()
    assert agg.edge_weight(0, 1) == pytest.approx(5.0)
    assert agg.edge_weight(0, 0) == pytest.approx(1.0)  # self-loop


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graph_edges_match_the_frozenset_walk(seed):
    """``edges()`` keeps, from each node, the neighbours at or after
    its position: the same tuples in the same order as the frozenset
    walk it replaced, with self-loops. (No removal draws: a graph can
    no longer lose a vertex.)"""
    rng = np.random.default_rng(seed)
    g = Graph()
    nodes = list(rng.permutation(int(rng.integers(1, 14))).tolist())
    for node in nodes:
        g.add_node(node)
    for _ in range(int(rng.integers(0, 40))):
        u, v = rng.choice(nodes, 2)
        g.add_edge(int(u), int(v), float(rng.choice([0.25, 0.5, 1.0])))
    assert list(g.edges()) == list(frozenset_edges(g))


def test_graph_copy_independent():
    g = Graph.from_edges([("a", "b", 1.0)])
    h = g.copy()
    h.add_edge("a", "b", 9.0)
    assert g.edge_weight("a", "b") == 1.0


# -- community detection -------------------------------------------------------------


@pytest.mark.parametrize("algorithm", [leiden, louvain, label_propagation])
def test_planted_partition_recovered(algorithm):
    g, nodes = planted_graph()
    communities = algorithm(g, random_state=0)
    assert len(communities) == 3
    found = {frozenset(c) for c in communities}
    assert {frozenset(n) for n in nodes} == found


def test_girvan_newman_recovers_planted_partition():
    g, nodes = planted_graph(size=6)
    communities = girvan_newman(g)
    assert {frozenset(c) for c in communities} == {
        frozenset(n) for n in nodes
    }


@pytest.mark.parametrize("algorithm", [leiden, louvain])
def test_partition_is_exhaustive(algorithm):
    g, _ = planted_graph(seed=4)
    communities = algorithm(g, random_state=1)
    all_nodes = set()
    for community in communities:
        assert not (all_nodes & community)
        all_nodes |= community
    assert all_nodes == set(g.nodes())


def test_leiden_deterministic_under_seed():
    g, _ = planted_graph(seed=2)
    a = leiden(g, random_state=11)
    b = leiden(g, random_state=11)
    assert sorted(map(sorted, a)) == sorted(map(sorted, b))


def test_leiden_modularity_matches_networkx_louvain_quality():
    g, _ = planted_graph(seed=5)
    ours = modularity(g, leiden(g, random_state=0))
    G = nx.Graph()
    for u, v, w in g.edges():
        G.add_edge(u, v, weight=w)
    theirs = nx.community.modularity(
        G, nx.community.louvain_communities(G, seed=0)
    )
    assert ours >= theirs - 0.02


def test_leiden_resolution_controls_granularity():
    g, _ = planted_graph(seed=6)
    coarse = leiden(g, resolution=0.2, random_state=0)
    fine = leiden(g, resolution=3.0, random_state=0)
    assert len(fine) >= len(coarse)


def test_modularity_agrees_with_networkx():
    g, nodes = planted_graph(seed=7)
    communities = [set(n) for n in nodes]
    G = nx.Graph()
    for u, v, w in g.edges():
        G.add_edge(u, v, weight=w)
    assert modularity(g, communities) == pytest.approx(
        nx.community.modularity(G, communities), abs=1e-9
    )


def test_cpm_quality_of_singletons_is_zero_minus_nothing():
    g = Graph.from_edges([("a", "b", 1.0)])
    assert cpm_quality(g, [{"a"}, {"b"}]) == pytest.approx(0.0)


def test_partition_from_communities_rejects_overlap():
    with pytest.raises(ValueError, match="two communities"):
        partition_from_communities([{"a"}, {"a", "b"}])


def test_edge_betweenness_matches_networkx():
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    )
    ours = edge_betweenness(g)
    G = nx.Graph([(u, v) for u, v, _ in g.edges()])
    theirs = nx.edge_betweenness_centrality(G, normalized=False)
    for (u, v), value in theirs.items():
        assert ours[frozenset((u, v))] == pytest.approx(value)


# -- incremental clustering --------------------------------------------------------


def test_graph_strength_and_total_weight_track_mutations():
    """The O(1) strength/total-weight bookkeeping must stay consistent
    through every mutation path (add, overwrite, increment, edge
    removal)."""
    g = Graph()
    g.add_edge("a", "b", 2.0)
    g.add_edge("a", "a", 1.5)       # self-loop
    g.add_edge("a", "b", 0.5)       # overwrite shrinks the edge
    g.increment_edge("b", "c", 3.0)
    g.remove_edge("a", "a")
    assert g.total_weight() == pytest.approx(3.5)
    assert g.strength("a") == pytest.approx(0.5)
    assert g.strength("b") == pytest.approx(3.5)
    # Copies and aggregates carry consistent bookkeeping too.
    h = Graph.from_edges([("x", "y", 1.0), ("y", "z", 2.0)])
    agg, _ = CSRGraph.from_graph(h).aggregate([0, 0, 1])
    assert agg.total == pytest.approx(3.0)
    assert agg.strengths[0] == pytest.approx(4.0)  # self-loop counts twice
    copy = h.copy()
    copy.add_edge("x", "z", 5.0)
    assert h.total_weight() == pytest.approx(3.0)
    assert copy.total_weight() == pytest.approx(8.0)
    sub = h.subgraph({"x", "y"})
    assert sub.total_weight() == pytest.approx(1.0)
    assert sub.strength("y") == pytest.approx(1.0)


def test_local_move_bounded_queue_stays_local():
    """With a restricted work queue only the queued region may move;
    a far-away misassigned node stays put (full sweep fixes it)."""
    g, nodes = planted_graph(n_communities=3, size=6, p_out=0.0, seed=1)
    partition = {n: c for c, com in enumerate(nodes) for n in com}
    # Misassign one node of community 0 and one of community 2.
    wrong_near, wrong_far = nodes[0][0], nodes[2][0]
    partition[wrong_near] = 1
    partition[wrong_far] = 1
    moved_partition, n_moved = local_move(
        g, dict(partition), rng=np.random.default_rng(0),
        nodes=[wrong_near],
    )
    assert n_moved
    assert moved_partition[wrong_near] == partition[nodes[0][1]]
    assert moved_partition[wrong_far] == 1  # never queued, never fixed
    full_partition, _ = local_move(
        g, dict(partition), rng=np.random.default_rng(0)
    )
    assert full_partition[wrong_far] == partition[nodes[2][1]]


# -- components / mincut -----------------------------------------------------------


def test_connected_components():
    g = Graph.from_edges([("a", "b"), ("c", "d")])
    g.add_node("e")
    components = connected_components(g)
    assert sorted(len(c) for c in components) == [1, 2, 2]


def test_bridges_found():
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"),
         ("e", "f"), ("d", "f")]
    )
    assert bridges(g) == {frozenset(("c", "d"))}


def test_stoer_wagner_barbell():
    g = Graph()
    for i in range(4):
        for j in range(i + 1, 4):
            g.add_edge(f"a{i}", f"a{j}", 1.0)
            g.add_edge(f"b{i}", f"b{j}", 1.0)
    g.add_edge("a0", "b0", 0.25)
    weight, (side_a, side_b) = stoer_wagner(g)
    assert weight == pytest.approx(0.25)
    assert {len(side_a), len(side_b)} == {4}
    assert min_cut_edges(g) == {frozenset(("a0", "b0"))}


def test_stoer_wagner_matches_networkx():
    rng = np.random.default_rng(0)
    g = Graph()
    G = nx.Graph()
    nodes = list(range(8))
    for i in nodes:
        for j in nodes[i + 1:]:
            if rng.random() < 0.6:
                w = float(rng.integers(1, 10))
                g.add_edge(i, j, w)
                G.add_edge(i, j, weight=w)
    if nx.is_connected(G):
        ours, _ = stoer_wagner(g)
        theirs, _ = nx.stoer_wagner(G)
        assert ours == pytest.approx(theirs)


def test_stoer_wagner_needs_two_nodes():
    g = Graph()
    g.add_node("only")
    with pytest.raises(ValueError, match="two nodes"):
        stoer_wagner(g)


# -- union-find -----------------------------------------------------------------


def test_union_find_groups():
    uf = UnionFind(["a", "b", "c", "d"])
    uf.union("a", "b")
    uf.union("c", "d")
    assert uf.connected("a", "b")
    assert not uf.connected("a", "c")
    assert sorted(len(g) for g in uf.groups()) == [2, 2]


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=30,
))
def test_union_find_transitivity_property(pairs):
    """Property: union-find connectivity equals BFS connectivity."""
    uf = UnionFind(range(16))
    g = Graph()
    for i in range(16):
        g.add_node(i)
    for a, b in pairs:
        uf.union(a, b)
        g.add_edge(a, b, 1.0)
    components = connected_components(g)
    for component in components:
        members = sorted(component)
        for i in range(len(members) - 1):
            assert uf.connected(members[i], members[i + 1])
