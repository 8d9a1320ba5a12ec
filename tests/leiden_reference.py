"""Exact-equality oracle for the CSR Leiden kernel.

The dict-of-dicts community detection that :mod:`repro.graphcluster`
ran before its CSR kernel, kept verbatim (minus the warm-start
``seed_partition`` / ``queue_nodes`` arguments, which left the library
with their only callers):

- :func:`local_move` — the queue-based fast local move, one Python
  loop over each visited node's adjacency dict;
- :func:`leiden` / :func:`louvain` with :func:`_refine` and
  :func:`aggregate` (formerly ``Graph.aggregate``), which rebuilds the
  quotient graph with one ``increment_edge`` per edge;
- :func:`from_partition` — ``ModularityAggregates.from_partition`` as
  one pass over ``Graph.edges()``;
- :func:`frozenset_edges` — ``Graph.edges()`` as it skipped the second
  direction of each edge through a set of frozensets.

All of them take a dict :class:`~repro.graphcluster.Graph` (the ER
problem graph gives one through ``ERProblemGraph.to_graph()``). The
kernel must reproduce their communities, partitions, moved flags and
aggregates exactly — list order, dict key order and float bits — not to
a tolerance.
"""

import math
from collections import deque

from repro.graphcluster import Graph, ModularityAggregates
from repro.graphcluster.quality import communities_from_partition
from repro.ml.utils import check_random_state


def frozenset_edges(graph):
    """Yield ``(u, v, weight)`` once per undirected edge."""
    seen = set()
    for u, adjacency in graph._adj.items():
        for v, weight in adjacency.items():
            # Canonical frozenset key: node ids may not be orderable.
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            yield u, v, weight


def aggregate(graph, partition):
    """Quotient graph over ``partition`` (a ``node -> community`` map).

    Edge weights between communities are summed; intra-community
    weights become self-loops. Returns the aggregated :class:`Graph`
    whose nodes are the community labels.
    """
    g = Graph()
    for node in graph.nodes():
        g.add_node(partition[node])
    for u, v, weight in frozenset_edges(graph):
        cu, cv = partition[u], partition[v]
        g.increment_edge(cu, cv, weight)
    return g


def from_partition(graph, partition):
    """One O(edges) pass over ``graph`` — the full-recluster price.

    ``partition`` must cover every node of ``graph``.
    """
    intra = {}
    strength = {}
    for node, label in partition.items():
        strength[label] = strength.get(label, 0.0) + graph.strength(node)
    for u, v, weight in frozenset_edges(graph):
        label = partition[u]
        if u == v or partition[v] == label:
            intra[label] = intra.get(label, 0.0) + weight
    return ModularityAggregates(graph.total_weight(), intra, strength)


def local_move(graph, partition, resolution=1.0, rng=None, nodes=None,
               aggregates=None):
    """Queue-based fast local move.

    Each node is repeatedly offered its best neighbouring community by
    modularity gain; neighbours of moved nodes are re-queued. Terminates
    because every accepted move strictly increases modularity.

    Returns
    -------
    (dict, bool)
        The mutated ``partition`` and whether any node moved.
    """
    rng = check_random_state(rng)
    m = graph.total_weight()
    if m <= 0:
        return partition, False

    strengths = {node: graph.strength(node) for node in graph.nodes()}
    community_strength = {}
    for node, community in partition.items():
        community_strength[community] = (
            community_strength.get(community, 0.0) + strengths[node]
        )

    if nodes is None:
        nodes = list(graph.nodes())
    else:
        keep = set(nodes)
        nodes = [node for node in graph.nodes() if node in keep]
    rng.shuffle(nodes)
    queue = deque(nodes)
    queued = set(nodes)
    moved_any = False
    while queue:
        node = queue.popleft()
        queued.discard(node)
        current = partition[node]
        k = strengths[node]

        # Weight from `node` to each adjacent community (self-loops excluded:
        # they contribute equally to every candidate community).
        weight_to = {}
        for neighbour, weight in graph.neighbors(node).items():
            if neighbour == node:
                continue
            community = partition[neighbour]
            weight_to[community] = weight_to.get(community, 0.0) + weight
        weight_to.setdefault(current, 0.0)

        community_strength[current] -= k
        best_gain = (
            weight_to[current]
            - resolution * k * community_strength[current] / (2 * m)
        )
        best_community = current
        for community, weight in weight_to.items():
            if community == current:
                continue
            gain = (
                weight
                - resolution * k * community_strength[community] / (2 * m)
            )
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_community = community
        community_strength[best_community] = (
            community_strength.get(best_community, 0.0) + k
        )
        if best_community != current:
            partition[node] = best_community
            moved_any = True
            if aggregates is not None:
                aggregates.move(
                    current, best_community, k,
                    weight_to[current], weight_to[best_community],
                    graph.edge_weight(node, node),
                )
            for neighbour in graph.neighbors(node):
                if (
                    neighbour != node
                    and partition[neighbour] != best_community
                    and neighbour not in queued
                ):
                    queue.append(neighbour)
                    queued.add(neighbour)
    return partition, moved_any


def louvain(graph, resolution=1.0, random_state=None, max_levels=20):
    """Run Louvain; returns a list of node-set communities."""
    rng = check_random_state(random_state)
    mapping = {node: node for node in graph.nodes()}  # original -> aggregate
    current = graph
    for _ in range(max_levels):
        level_partition = {node: node for node in current.nodes()}
        level_partition, moved = local_move(
            current, level_partition, resolution, rng
        )
        for node in mapping:
            mapping[node] = level_partition[mapping[node]]
        if not moved:
            break
        aggregated = aggregate(current, level_partition)
        if len(aggregated) == len(current):
            break
        current = aggregated
    return communities_from_partition(mapping)


def leiden(graph, resolution=1.0, random_state=None, max_levels=20,
           theta=0.01):
    """Run Leiden; returns a list of node-set communities."""
    rng = check_random_state(random_state)
    # mapping: original node -> node of `current` it is represented by.
    mapping = {node: node for node in graph.nodes()}
    current = graph
    partition = {node: node for node in graph.nodes()}
    for _ in range(max_levels):
        partition, moved = local_move(current, partition, resolution, rng)
        n_communities = len(set(partition.values()))
        if not moved or n_communities == len(current):
            break
        refined = _refine(current, partition, resolution, rng, theta)
        for node in mapping:
            mapping[node] = refined[mapping[node]]
        aggregated = aggregate(current, refined)
        # Seed the next level's local move with the *unrefined* communities
        # (each refined community starts inside its coarse community).
        seed = {}
        for node in current.nodes():
            seed[refined[node]] = partition[node]
        current = aggregated
        partition = seed
    for node in mapping:
        mapping[node] = partition[mapping[node]]
    return communities_from_partition(mapping)


def _refine(graph, partition, resolution, rng, theta):
    """Leiden refinement phase.

    Starts from singletons and, inside each local-move community, merges
    well-connected singleton nodes into sub-communities with a merge
    probability proportional to ``exp(gain / theta)`` over positive-gain
    candidates. Returns a ``node -> refined label`` map whose refined
    communities nest inside ``partition``'s communities.
    """
    m = graph.total_weight()
    refined = {node: node for node in graph.nodes()}
    if m <= 0:
        return refined

    strengths = {node: graph.strength(node) for node in graph.nodes()}
    communities = {}
    for node, community in partition.items():
        communities.setdefault(community, []).append(node)

    for members in communities.values():
        if len(members) == 1:
            continue
        member_set = set(members)
        community_strength = sum(strengths[n] for n in members)

        # Each node's edge weight into the rest of its community.
        weight_into_community = {}
        for node in members:
            total = 0.0
            for neighbour, weight in graph.neighbors(node).items():
                if neighbour in member_set and neighbour != node:
                    total += weight
            weight_into_community[node] = total

        sub_strength = {node: strengths[node] for node in members}
        sub_size = {node: 1 for node in members}

        order = list(members)
        rng.shuffle(order)
        for node in order:
            if refined[node] != node or sub_size[node] != 1:
                continue  # only still-singleton nodes may merge
            k = strengths[node]
            # Well-connectedness of the node w.r.t. its community.
            threshold = resolution * k * (community_strength - k) / (2 * m)
            if weight_into_community[node] < threshold - 1e-12:
                continue

            # Candidate sub-communities and their modularity gains.
            weight_to = {}
            for neighbour, weight in graph.neighbors(node).items():
                if neighbour in member_set and neighbour != node:
                    label = refined[neighbour]
                    weight_to[label] = weight_to.get(label, 0.0) + weight
            candidates = []
            gains = []
            for label, weight in weight_to.items():
                if label == node:
                    continue
                gain = weight - resolution * k * sub_strength[label] / (2 * m)
                if gain > 1e-12:
                    candidates.append(label)
                    gains.append(gain)
            if not candidates:
                continue
            if theta <= 0:
                best = max(range(len(gains)), key=gains.__getitem__)
                choice = candidates[best]
            else:
                scaled = [g / theta for g in gains]
                peak = max(scaled)
                weights = [math.exp(s - peak) for s in scaled]
                total = sum(weights)
                r = rng.random() * total
                acc = 0.0
                choice = candidates[-1]
                for candidate, w in zip(candidates, weights):
                    acc += w
                    if r <= acc:
                        choice = candidate
                        break
            sub_strength[choice] += k
            sub_size[choice] += 1
            sub_strength[node] = 0.0
            sub_size[node] = 0
            refined[node] = choice
    return refined
