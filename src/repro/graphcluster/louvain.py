"""Louvain community detection (Blondel et al. 2008) and the local move.

Shared machinery for :mod:`repro.graphcluster.leiden`: the fast local
move phase, run on the CSR form (:class:`~repro.graphcluster.CSRGraph`).
Louvain itself is exposed because the paper's pre-experiments compared
Leiden against alternatives.

Exactness: each visited vertex sums its weight into every adjacent
community with one ``np.bincount`` in adjacency order — the dict loop's
order — and scores every community at once. Only communities whose gain
already beats the current one by the strict ``1e-12`` margin can win, so
the sequential first-encounter scan runs over those few alone and picks
what the full scan picks. Results match the dict implementation in
``tests/leiden_reference.py`` bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..ml.utils import check_random_state
from .csr import as_csr
from .quality import communities_from_partition

__all__ = ["louvain", "local_move"]


def local_move(graph, partition, resolution=1.0, rng=None, nodes=None,
               aggregates=None):
    """Queue-based fast local move.

    Each node is repeatedly offered its best neighbouring community by
    modularity gain; neighbours of moved nodes are re-queued. Terminates
    because every accepted move strictly increases modularity.

    Parameters
    ----------
    graph : CSRGraph or Graph
        A dict :class:`~repro.graphcluster.Graph` is copied to CSR form.
    partition : dict
        ``node -> label`` over every node of ``graph``; labels may be
        any hashables. Mutated in place.
    nodes : iterable, optional
        Bounded work-queue variant: seed the queue with only these
        nodes instead of every node of the graph. Neighbours of moved
        nodes still join the queue, so improvements propagate outward
        exactly as in the full sweep — the row-replay path uses
        this to touch only the region around a mutation. The seed
        queue is canonicalised to graph order before the shuffle, so
        passing a set (hash-ordered) cannot leak ``PYTHONHASHSEED``
        into seeded results.
    aggregates : ModularityAggregates, optional
        Delta-tracked per-community ``(L_c, K_c)`` sums, updated in
        O(1) per accepted move. Must have been built against (a
        superset sharing labels with) ``partition``; afterwards its
        ``quality()`` reflects the returned partition without any
        O(edges) modularity pass.

    Returns
    -------
    (dict, bool)
        The mutated ``partition`` and whether any node moved.
    """
    graph = as_csr(graph)
    rng = check_random_state(rng)
    if graph.total <= 0:
        return partition, False
    labels, rows, codes, part = graph.encode(partition)
    community_strength = np.bincount(
        codes, weights=graph.strengths[rows], minlength=len(labels)
    )
    if nodes is None:
        queue = list(range(len(graph)))
    else:
        keep = set(nodes)
        queue = [i for i, node in enumerate(graph.nodes) if node in keep]
    on_move = None
    if aggregates is not None:
        def on_move(old, new, k, weight_old, weight_new, self_loop):
            aggregates.move(labels[old], labels[new], k, weight_old,
                            weight_new, self_loop)
    moved = _move_nodes(graph, part, community_strength, queue, resolution,
                        rng, on_move)
    for i in moved:
        partition[graph.nodes[i]] = labels[part[i]]
    return partition, bool(moved)


def _move_nodes(graph, part, community_strength, queue, resolution, rng,
                on_move=None):
    """The local move over codes: ``part`` (vertex -> community code)
    and ``community_strength`` (per code) are updated in place. Returns
    the vertices that moved at least once."""
    indptr, indices, weights, loops = graph.links()
    bounds = indptr.tolist()
    strengths = graph.strengths.tolist()
    n_codes = len(community_strength)
    two_m = 2 * graph.total
    rng.shuffle(queue)
    queued = np.zeros(len(graph), dtype=bool)
    queued[queue] = True
    queue = deque(queue)
    moved = set()
    while queue:
        node = queue.popleft()
        queued[node] = False
        current = int(part[node])
        k = strengths[node]
        lo, hi = bounds[node], bounds[node + 1]
        neighbours = indices[lo:hi]
        adjacent = part[neighbours]
        weight_to = np.bincount(adjacent, weights=weights[lo:hi],
                                minlength=n_codes)
        community_strength[current] -= k
        gains = weight_to - resolution * k * community_strength / two_m
        best_gain = gains[current]
        best = current
        # Only adjacent communities already beating the current one can
        # win; scan those in first-encounter order.
        winners = adjacent[gains[adjacent] > best_gain + 1e-12]
        for community in dict.fromkeys(winners.tolist()):
            if gains[community] > best_gain + 1e-12:
                best_gain = gains[community]
                best = community
        community_strength[best] += k
        if best == current:
            continue
        part[node] = best
        moved.add(node)
        if on_move is not None:
            on_move(current, best, k, float(weight_to[current]),
                    float(weight_to[best]), float(loops[node]))
        wake = neighbours[(adjacent != best) & ~queued[neighbours]]
        queued[wake] = True
        queue.extend(wake.tolist())
    return moved


def louvain(graph, resolution=1.0, random_state=None, max_levels=20):
    """Run Louvain; returns a list of node-set communities."""
    graph = as_csr(graph)
    rng = check_random_state(random_state)
    mapping = np.arange(len(graph))  # original vertex -> current vertex
    current = graph
    for _ in range(max_levels):
        part = np.arange(len(current))
        community_strength = current.strengths.copy()
        moved = (
            current.total > 0
            and _move_nodes(current, part, community_strength,
                            list(range(len(current))), resolution, rng)
        )
        if not moved:
            mapping = part[mapping]
            break
        aggregated, group = current.aggregate(part)
        if len(aggregated) == len(current):
            mapping = part[mapping]
            break
        mapping = group[mapping]
        current = aggregated
    return communities_from_partition(dict(zip(graph.nodes,
                                               mapping.tolist())))
