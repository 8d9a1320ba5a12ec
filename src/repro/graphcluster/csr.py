"""Compressed-sparse-row (CSR) form of a weighted undirected graph.

The Leiden / Louvain kernel (:mod:`repro.graphcluster.louvain`,
:mod:`repro.graphcluster.leiden`) and the modularity aggregates run on
this form. Vertices are positions ``0..n-1``; ``nodes[i]`` is the id of
position ``i``. Each vertex lists its neighbours in *adjacency order* —
the order a dict :class:`~repro.graphcluster.Graph` would iterate them,
which is the creation order of the vertex's edges. The kernel sums with
``np.bincount`` (one sequential pass per bin, in index order), so every
per-community sum adds the same floats in the same order as a dict loop
over that adjacency, and results are bit-identical to the dict
implementation kept in ``tests/leiden_reference.py``.

Strengths and the total weight are carried, not recomputed: the graph
holds the values its owner accumulated edge by edge.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["CSRGraph", "as_csr"]


class CSRGraph:
    """Immutable CSR adjacency with node strengths and total weight.

    A self-loop of weight *w* appears once in its vertex's neighbour
    list and contributes *2 w* to the strength, as in :class:`Graph`.
    """

    __slots__ = ("nodes", "indptr", "indices", "weights", "strengths",
                 "total", "_index", "_links", "_upper")

    def __init__(self, nodes, indptr, indices, weights, strengths, total,
                 index=None):
        self.nodes = nodes
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.strengths = strengths
        self.total = float(total)
        self._index = index
        self._links = None
        self._upper = None

    @classmethod
    def from_graph(cls, graph):
        """Exact CSR copy of a dict :class:`Graph`: node order,
        adjacency order, strengths and total weight."""
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        degrees = [graph.degree(node) for node in nodes]
        size = sum(degrees)
        indices = np.fromiter(
            (index[v] for node in nodes for v in graph.neighbors(node)),
            dtype=np.intp, count=size,
        )
        weights = np.fromiter(
            (w for node in nodes for w in graph.neighbors(node).values()),
            dtype=float, count=size,
        )
        indptr = np.zeros(len(nodes) + 1, dtype=np.intp)
        np.cumsum(degrees, out=indptr[1:])
        strengths = np.array(
            [graph.strength(node) for node in nodes], dtype=float
        )
        return cls(nodes, indptr, indices, weights, strengths,
                   graph.total_weight(), index)

    @classmethod
    def from_edges(cls, nodes, rows, cols, weights, strengths, total,
                   index=None):
        """CSR over a loop-free edge list in creation order: each
        vertex lists its neighbours in the order its edges appear in
        ``rows``/``cols`` (as ``Graph.add_edge`` in that order would)."""
        n = len(nodes)
        src = np.empty(2 * len(rows), dtype=np.intp)
        dst = np.empty_like(src)
        src[0::2] = rows
        src[1::2] = cols
        dst[0::2] = cols
        dst[1::2] = rows
        doubled = np.repeat(np.asarray(weights, dtype=float), 2)
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(nodes, indptr, dst[order], doubled[order], strengths,
                   total, index)

    # -- views -------------------------------------------------------------

    def __len__(self):
        return len(self.nodes)

    @property
    def index(self):
        """``node id -> position``."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.nodes)}
        return self._index

    def encode(self, partition):
        """A ``node -> label`` map over every vertex as integer codes:
        ``(labels, rows, codes, part)`` — the distinct labels in
        first-seen order, each entry's vertex and label code in
        ``partition`` order, and the code of every vertex."""
        labels = list(dict.fromkeys(partition.values()))
        code = {label: i for i, label in enumerate(labels)}
        rows = np.array([self.index[node] for node in partition],
                        dtype=np.intp)
        if len(rows) != len(self.nodes):
            raise KeyError("the partition must cover every node of the graph")
        codes = np.array([code[label] for label in partition.values()],
                         dtype=np.intp)
        part = np.empty(len(self.nodes), dtype=np.intp)
        part[rows] = codes
        return labels, rows, codes, part

    def sources(self):
        """The source position of every CSR entry."""
        return np.repeat(
            np.arange(len(self.nodes), dtype=np.intp), np.diff(self.indptr)
        )

    def neighbors(self, position):
        """Neighbour positions of ``position`` in adjacency order."""
        return self.indices[self.indptr[position]:self.indptr[position + 1]]

    def links(self):
        """``(indptr, indices, weights, loops)`` without self-loops —
        the local move and refinement skip them — plus each vertex's
        self-loop weight (0.0 when it has none)."""
        if self._links is None:
            src = self.sources()
            loop = self.indices == src
            loops = np.zeros(len(self.nodes))
            loops[src[loop]] = self.weights[loop]
            if loop.any():
                keep = ~loop
                indptr = np.zeros_like(self.indptr)
                np.cumsum(
                    np.bincount(src[keep], minlength=len(self.nodes)),
                    out=indptr[1:],
                )
                self._links = (indptr, self.indices[keep],
                               self.weights[keep], loops)
            else:
                self._links = (self.indptr, self.indices, self.weights,
                               loops)
        return self._links

    def upper(self):
        """``(src, dst, weight)`` once per undirected edge, in the order
        :meth:`Graph.edges` yields them: by source position, each in
        adjacency order, keeping entries whose neighbour sits at or
        after the source."""
        if self._upper is None:
            src = self.sources()
            keep = self.indices >= src
            self._upper = (src[keep], self.indices[keep],
                           self.weights[keep])
        return self._upper

    def to_graph(self):
        """Exact dict :class:`Graph` copy (same node order, adjacency
        order, strengths and total) for the dict-only algorithms."""
        nodes = self.nodes
        weights = self.weights.tolist()
        indices = self.indices.tolist()
        bounds = self.indptr.tolist()
        graph = Graph()
        graph._adj = {
            node: {
                nodes[j]: w for j, w in zip(
                    indices[bounds[i]:bounds[i + 1]],
                    weights[bounds[i]:bounds[i + 1]],
                )
            }
            for i, node in enumerate(nodes)
        }
        graph._strengths = dict(zip(nodes, self.strengths.tolist()))
        graph._total = self.total
        return graph

    # -- aggregation -------------------------------------------------------

    def aggregate(self, labels):
        """Quotient graph over the per-vertex community ``labels``.

        Returns ``(aggregated, group)``: ``group[i]`` is the aggregated
        vertex of vertex ``i``. Aggregated vertices follow the first
        appearance of their label in vertex order; edge weights,
        adjacency order, strengths and the total are accumulated in
        :meth:`upper` order, exactly as summing ``increment_edge`` over
        ``Graph.edges()`` builds them.
        """
        labels = np.asarray(labels)
        uniq, first = np.unique(labels, return_index=True)
        size = len(uniq)
        lookup = np.empty(int(uniq[-1]) + 1 if size else 0, dtype=np.intp)
        lookup[uniq[np.argsort(first)]] = np.arange(size)
        group = lookup[labels]
        src, dst, weight = self.upper()
        a, b = group[src], group[dst]
        low, high = np.minimum(a, b), np.maximum(a, b)
        pairs, first_seen, inverse = np.unique(
            low * size + high, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        pair_weight = np.bincount(inverse, weights=weight,
                                  minlength=len(pairs))
        pair_low, pair_high = pairs // size, pairs % size
        two_way = pair_low != pair_high
        entry_src = np.concatenate([pair_low, pair_high[two_way]])
        entry_dst = np.concatenate([pair_high, pair_low[two_way]])
        entry_seen = np.concatenate([first_seen, first_seen[two_way]])
        entry_weight = np.concatenate([pair_weight, pair_weight[two_way]])
        order = np.lexsort((entry_seen, entry_src))
        indptr = np.zeros(size + 1, dtype=np.intp)
        np.cumsum(np.bincount(entry_src, minlength=size), out=indptr[1:])
        # Each edge adds its weight to both ends; an edge that becomes a
        # self-loop adds 2 w to its one end in a single step, as
        # Graph._shift_edge does, so its second share is 0.0.
        loop = a == b
        shares = np.empty(2 * len(weight))
        shares[0::2] = np.where(loop, 2 * weight, weight)
        shares[1::2] = np.where(loop, 0.0, weight)
        ends = np.empty(2 * len(weight), dtype=np.intp)
        ends[0::2] = a
        ends[1::2] = b
        strengths = np.bincount(ends, weights=shares, minlength=size)
        total = float(np.cumsum(weight)[-1]) if len(weight) else 0.0
        aggregated = CSRGraph(
            list(range(size)), indptr, entry_dst[order],
            entry_weight[order], strengths, total,
        )
        return aggregated, group


def as_csr(graph):
    """``graph`` as a :class:`CSRGraph` (a dict :class:`Graph` is
    copied exactly)."""
    return graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
