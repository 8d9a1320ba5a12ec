"""Partition quality functions (modularity, CPM) and partition helpers.

Besides the one-shot :func:`modularity` pass this module provides
:class:`ModularityAggregates`, the delta-tracked form used by the
incremental ``sel_cov`` path: per-community :math:`(L_c, K_c)` sums
updated in O(1) per node move / inserted edge, so the degradation
check after a bounded local move costs O(moved region) instead of one
O(edges) :func:`modularity` sweep per solve.
"""

from __future__ import annotations

import numpy as np

from .csr import as_csr

__all__ = ["modularity", "cpm_quality", "partition_from_communities",
           "communities_from_partition", "ModularityAggregates"]


def partition_from_communities(communities):
    """Convert an iterable of node collections to a ``node -> label`` map."""
    partition = {}
    for label, community in enumerate(communities):
        for node in community:
            if node in partition:
                raise ValueError(f"node {node!r} appears in two communities")
            partition[node] = label
    return partition


def communities_from_partition(partition):
    """Convert a ``node -> label`` map to a list of node sets."""
    groups = {}
    for node, label in partition.items():
        groups.setdefault(label, set()).add(node)
    return list(groups.values())


def modularity(graph, communities, resolution=1.0):
    """Newman modularity of ``communities`` on a weighted graph.

    .. math:: Q = \\sum_c \\left[ \\frac{L_c}{m}
              - \\gamma \\left( \\frac{K_c}{2m} \\right)^2 \\right]

    with :math:`L_c` the intra-community weight, :math:`K_c` the total
    strength of the community and :math:`m` the total edge weight.

    One pass over the adjacency lists: the incremental ``sel_cov``
    path evaluates this after every local update (the degradation
    check), so the per-community member-set scans the naive version
    paid were a per-solve O(edges · |community|) tax.
    """
    m = graph.total_weight()
    if m <= 0:
        return 0.0
    label = {}
    for index, community in enumerate(communities):
        for node in community:
            label[node] = index
    intra = [0.0] * len(communities)
    strength = [0.0] * len(communities)
    for node in graph.nodes():
        node_label = label.get(node)
        if node_label is None:  # node outside every community: ignored,
            continue            # matching the old member-set walk
        strength[node_label] += graph.strength(node)
        for neighbour, weight in graph.neighbors(node).items():
            if neighbour == node:
                intra[node_label] += 2 * weight
            elif label.get(neighbour) == node_label:
                intra[node_label] += weight
    q = 0.0
    for community_intra, community_strength in zip(intra, strength):
        # Every intra edge was counted from both endpoints.
        q += (
            community_intra / (2.0 * m)
            - resolution * (community_strength / (2 * m)) ** 2
        )
    return q


class ModularityAggregates:
    """Per-community ``(L_c, K_c)`` sums with O(1) incremental updates.

    Tracks, for a ``node -> label`` partition over a weighted graph,

    * ``intra[c]`` — :math:`L_c`, the intra-community edge weight
      (each edge counted once, self-loops once),
    * ``strength[c]`` — :math:`K_c`, the summed node strengths
      (self-loops count twice, matching :meth:`Graph.strength`),
    * ``m`` — the total edge weight,

    plus the running totals :math:`\\sum_c L_c` and
    :math:`\\sum_c K_c^2`, so :meth:`quality` is O(1):

    .. math:: Q = \\frac{\\sum_c L_c}{m}
              - \\gamma \\frac{\\sum_c K_c^2}{4 m^2}

    Two mutation channels keep the sums current:

    * :meth:`move` — a node changes community (``local_move``);
    * :meth:`add_node` — a vertex joins as a singleton community with
      edges to existing vertices (the replay of an inserted row).

    Labels never get garbage-collected on reaching zero strength (float
    cancellation makes "exactly zero" unreliable); callers rebuild from
    scratch at every full recluster, which bounds the dead-label count
    by the moves between full runs.
    """

    __slots__ = ("m", "intra", "strength", "intra_total", "strength_sq")

    def __init__(self, m=0.0, intra=None, strength=None):
        self.m = float(m)
        self.intra = dict(intra or {})
        self.strength = dict(strength or {})
        self.intra_total = sum(self.intra.values())
        self.strength_sq = sum(k * k for k in self.strength.values())

    @classmethod
    def from_partition(cls, graph, partition):
        """One O(edges) pass over ``graph`` — the full-recluster price.

        ``graph`` is a :class:`~repro.graphcluster.CSRGraph` (a dict
        :class:`~repro.graphcluster.Graph` is copied to one);
        ``partition`` must cover every node. Community strengths are
        summed in ``partition`` order and intra weights in
        ``Graph.edges()`` order, each with one ``np.bincount``, and both
        dicts list their labels in first-seen order — the sums and key
        order the dict pass produced, which :meth:`quality` and the
        persisted state depend on.
        """
        graph = as_csr(graph)
        labels, rows, codes, part = graph.encode(partition)
        strength = np.bincount(
            codes, weights=graph.strengths[rows], minlength=len(labels)
        ).tolist()
        src, dst, weight = graph.upper()
        intra_codes = part[src]
        inside = intra_codes == part[dst]
        intra_codes = intra_codes[inside]
        sums = np.bincount(
            intra_codes, weights=weight[inside], minlength=len(labels)
        ).tolist()
        return cls(
            graph.total,
            {labels[c]: sums[c] for c in dict.fromkeys(intra_codes.tolist())},
            dict(zip(labels, strength)),
        )

    def copy(self):
        """Independent copy (used to trial a replay before accepting)."""
        twin = ModularityAggregates.__new__(ModularityAggregates)
        twin.m = self.m
        twin.intra = dict(self.intra)
        twin.strength = dict(self.strength)
        twin.intra_total = self.intra_total
        twin.strength_sq = self.strength_sq
        return twin

    def quality(self, resolution=1.0):
        """Current modularity — O(1), no graph pass."""
        if self.m <= 0:
            return 0.0
        return (
            self.intra_total / self.m
            - resolution * self.strength_sq / (4.0 * self.m * self.m)
        )

    def _shift_intra(self, label, delta):
        self.intra_total += delta
        self.intra[label] = self.intra.get(label, 0.0) + delta

    def _shift_strength(self, label, delta):
        old = self.strength.get(label, 0.0)
        new = old + delta
        self.strength_sq += new * new - old * old
        self.strength[label] = new

    def move(self, old, new, k, weight_old, weight_new, self_loop=0.0):
        """A node of strength ``k`` moves from community ``old`` to
        ``new``; ``weight_old`` / ``weight_new`` are its edge weights
        into each community (self-loops excluded, as in
        ``local_move``'s ``weight_to``)."""
        if old == new:
            return
        self._shift_intra(old, -(weight_old + self_loop))
        self._shift_intra(new, weight_new + self_loop)
        self._shift_strength(old, -k)
        self._shift_strength(new, k)

    def add_node(self, label, edges, partition):
        """A vertex joins as singleton community ``label`` with
        ``edges`` (``(neighbour, weight)`` pairs, in the order they are
        summed); every neighbour must be covered by ``partition``."""
        k = 0.0
        for neighbour, weight in edges:
            self.m += weight
            self._shift_strength(partition[neighbour], weight)
            k += weight
        self._shift_strength(label, k)

    def __repr__(self):
        return (
            f"ModularityAggregates(m={self.m:.3f}, "
            f"communities={len(self.strength)})"
        )


def cpm_quality(graph, communities, resolution=1.0):
    """Constant Potts Model quality (the Leiden paper's alternative).

    .. math:: Q = \\sum_c \\left[ L_c - \\gamma \\binom{n_c}{2} \\right]
    """
    q = 0.0
    for community in communities:
        members = set(community)
        intra = 0.0
        for node in members:
            for neighbour, weight in graph.neighbors(node).items():
                if neighbour in members:
                    intra += 2 * weight if neighbour == node else weight
        intra /= 2.0
        n = len(members)
        q += intra - resolution * n * (n - 1) / 2.0
    return q
