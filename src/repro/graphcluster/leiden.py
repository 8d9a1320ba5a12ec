"""Leiden community detection (Traag, Waltman & van Eck, 2019).

MoRER clusters the ER problem similarity graph with Leiden (§4.3) because
it guarantees well-connected communities, unlike Louvain which can produce
internally disconnected ones. The implementation follows the paper's
three phases:

1. **fast local move** (shared with Louvain),
2. **refinement** — inside every community, nodes are re-merged bottom-up
   but only into *well-connected* sub-communities, chosen randomly among
   positive-gain candidates,
3. **aggregation** on the *refined* partition, seeding the next level's
   local move with the unrefined communities.

All three run on the CSR form (:class:`~repro.graphcluster.CSRGraph`),
with vertices and communities as integer codes at every level, and
match the dict implementation in ``tests/leiden_reference.py`` bit for
bit: the same sums in the same order, the same RNG calls, and builtin
``sum`` / ``math.exp`` wherever the dict code uses them.
"""

from __future__ import annotations

import math

import numpy as np

from ..ml.utils import check_random_state
from .csr import as_csr
from .louvain import _move_nodes
from .quality import communities_from_partition

__all__ = ["leiden"]


def leiden(graph, resolution=1.0, random_state=None, max_levels=20,
           theta=0.01):
    """Run Leiden; returns a list of node-set communities.

    Parameters
    ----------
    graph : CSRGraph or Graph
        Weighted undirected graph; a dict
        :class:`~repro.graphcluster.Graph` is copied to CSR form.
    resolution : float
        Modularity resolution :math:`\\gamma`; larger values yield more,
        smaller communities.
    random_state : int or numpy.random.Generator, optional
        Seeds node orders and the randomised refinement merges.
    max_levels : int
        Safety bound on aggregation levels.
    theta : float
        Temperature of the randomised merge step; ``theta <= 0`` makes
        refinement greedy (deterministic best-gain merges).
    """
    graph = as_csr(graph)
    rng = check_random_state(random_state)
    mapping = np.arange(len(graph))  # original vertex -> current vertex
    current = graph
    part = np.arange(len(graph))     # current vertex -> community code
    for _ in range(max_levels):
        community_strength = np.bincount(
            part, weights=current.strengths, minlength=len(current)
        )
        moved = current.total > 0 and _move_nodes(
            current, part, community_strength, list(range(len(current))),
            resolution, rng,
        )
        if not moved or np.count_nonzero(np.bincount(part)) == len(current):
            break
        refined = _refine(current, part, resolution, rng, theta)
        aggregated, group = current.aggregate(refined)
        mapping = group[mapping]
        # Seed the next level's local move with the *unrefined*
        # communities (each refined community starts inside its coarse
        # community), as compact codes.
        seed = np.empty(len(aggregated), dtype=np.intp)
        seed[group] = part
        part = np.unique(seed, return_inverse=True)[1].reshape(-1)
        current = aggregated
    return communities_from_partition(
        dict(zip(graph.nodes, part[mapping].tolist()))
    )


def _refine(graph, part, resolution, rng, theta):
    """Leiden refinement phase.

    Starts from singletons and, inside each local-move community, merges
    well-connected singleton nodes into sub-communities with a merge
    probability proportional to ``exp(gain / theta)`` over positive-gain
    candidates. Returns the refined label of every vertex (a vertex
    position), nesting inside ``part``'s communities.
    """
    n = len(graph)
    refined = np.arange(n)
    m = graph.total
    if m <= 0:
        return refined
    indptr, indices, weights, _ = graph.links()
    strengths = graph.strengths.tolist()
    communities = {}
    for node, community in enumerate(part.tolist()):
        communities.setdefault(community, []).append(node)
    # Each node's links into the rest of its community, and their sum.
    src = np.repeat(np.arange(n), np.diff(indptr))
    inside = part[indices] == part[src]
    inner, inner_weights = indices[inside], weights[inside]
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src[inside], minlength=n), out=bounds[1:])
    bounds = bounds.tolist()
    weight_into_community = np.bincount(
        src[inside], weights=inner_weights, minlength=n
    ).tolist()
    sub_strength = graph.strengths.copy()
    sub_size = np.ones(n, dtype=np.intp)
    for members in communities.values():
        if len(members) == 1:
            continue
        community_strength = sum(strengths[node] for node in members)
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
            lo, hi = bounds[node], bounds[node + 1]
            labels = refined[inner[lo:hi]]
            weight_to = np.bincount(labels, weights=inner_weights[lo:hi],
                                    minlength=n)
            gains = weight_to - resolution * k * sub_strength / (2 * m)
            positive = labels[(gains[labels] > 1e-12) & (labels != node)]
            if not positive.size:
                continue
            candidates = list(dict.fromkeys(positive.tolist()))
            gains = [float(gains[label]) for label in candidates]
            if theta <= 0:
                best = max(range(len(gains)), key=gains.__getitem__)
                choice = candidates[best]
            else:
                scaled = [g / theta for g in gains]
                peak = max(scaled)
                odds = [math.exp(s - peak) for s in scaled]
                total = sum(odds)
                r = rng.random() * total
                acc = 0.0
                choice = candidates[-1]
                for label, w in zip(candidates, odds):
                    acc += w
                    if r <= acc:
                        choice = label
                        break
            sub_strength[choice] += k
            sub_size[choice] += 1
            sub_strength[node] = 0.0
            sub_size[node] = 0
            refined[node] = choice
    return refined
