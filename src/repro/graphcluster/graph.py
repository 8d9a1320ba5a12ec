"""Lightweight weighted undirected graph.

The record match graphs used by Almser (components, bridges, min-cuts),
label propagation and Girvan–Newman run on this adjacency-dict graph.
The ER problem similarity graph :math:`G_P` (§4.3) lives in arrays
(:class:`~repro.core.graph.ERProblemGraph`) and is clustered by the CSR
kernel (:class:`~repro.graphcluster.CSRGraph`); it hands an exact copy
of itself to the dict-only algorithms.

Node strengths and the total edge weight are maintained incrementally
(updated in O(1) per mutation), so ``strength`` and ``total_weight``
are constant-time.
"""

from __future__ import annotations

__all__ = ["Graph"]


class Graph:
    """Undirected graph with float edge weights and hashable node ids.

    Self-loops are allowed (they appear in aggregated community graphs);
    a self-loop of weight *w* contributes *2 w* to the node strength, the
    usual convention for modularity computations.
    """

    def __init__(self):
        self._adj = {}
        self._strengths = {}
        self._total = 0.0

    # -- construction ------------------------------------------------------

    def add_node(self, node):
        """Add ``node`` if not present."""
        if node not in self._adj:
            self._adj[node] = {}
            self._strengths[node] = 0.0

    def _shift_edge(self, u, v, delta):
        """Book-keep a weight change of ``delta`` on the edge ``{u, v}``."""
        self._total += delta
        if u == v:
            self._strengths[u] += 2 * delta
        else:
            self._strengths[u] += delta
            self._strengths[v] += delta

    def add_edge(self, u, v, weight=1.0):
        """Add or overwrite the edge ``{u, v}`` with ``weight``."""
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        self.add_node(u)
        self.add_node(v)
        weight = float(weight)
        self._shift_edge(u, v, weight - self._adj[u].get(v, 0.0))
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def increment_edge(self, u, v, weight=1.0):
        """Add ``weight`` to the edge ``{u, v}``, creating it if missing."""
        self.add_node(u)
        self.add_node(v)
        weight = float(weight)
        new_weight = self._adj[u].get(v, 0.0) + weight
        self._shift_edge(u, v, weight)
        self._adj[u][v] = new_weight
        self._adj[v][u] = new_weight

    def remove_edge(self, u, v):
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        weight = self._adj[u][v]
        del self._adj[u][v]
        if u != v:
            del self._adj[v][u]
        self._shift_edge(u, v, -weight)

    # -- queries -----------------------------------------------------------

    def __contains__(self, node):
        return node in self._adj

    def __len__(self):
        return len(self._adj)

    def nodes(self):
        """Iterate over node ids."""
        return iter(self._adj)

    def has_edge(self, u, v):
        """True when the edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def edge_weight(self, u, v, default=0.0):
        """Weight of ``{u, v}`` or ``default``."""
        return self._adj.get(u, {}).get(v, default)

    def neighbors(self, node):
        """Mapping ``neighbour -> weight`` (includes a self-loop if any)."""
        return self._adj[node]

    def degree(self, node):
        """Number of incident edges (self-loop counts once)."""
        return len(self._adj[node])

    def strength(self, node):
        """Weighted degree; self-loops count twice. O(1)."""
        return self._strengths[node]

    def edges(self):
        """Yield ``(u, v, weight)`` once per undirected edge: from each
        ``u``, the neighbours whose node position is at or after
        ``u``'s, in adjacency order."""
        position = {node: i for i, node in enumerate(self._adj)}
        for i, (u, adjacency) in enumerate(self._adj.items()):
            for v, weight in adjacency.items():
                if position[v] >= i:
                    yield u, v, weight

    def number_of_edges(self):
        """Count of undirected edges (self-loops count once)."""
        return sum(1 for _ in self.edges())

    def total_weight(self):
        """Sum of edge weights ``m`` (self-loops counted once). O(1)."""
        return self._total

    # -- derivations ---------------------------------------------------------

    def copy(self):
        """Deep copy of the structure (nodes are shared, weights copied)."""
        g = Graph()
        g._adj = {u: dict(adj) for u, adj in self._adj.items()}
        g._strengths = dict(self._strengths)
        g._total = self._total
        return g

    def subgraph(self, nodes):
        """Induced subgraph over ``nodes``, whose nodes (and each
        node's edges, in this graph's adjacency order) follow the order
        of ``nodes``."""
        keep = dict.fromkeys(nodes)
        g = Graph()
        for u in keep:
            if u not in self._adj:
                raise KeyError(f"node {u!r} not in graph")
            g.add_node(u)
        for u in keep:
            for v, weight in self._adj[u].items():
                if v in keep and v not in g._adj[u]:
                    g.add_edge(u, v, weight)
        return g

    @classmethod
    def from_edges(cls, edges):
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        g = cls()
        for edge in edges:
            if len(edge) == 2:
                g.add_edge(edge[0], edge[1], 1.0)
            else:
                g.add_edge(edge[0], edge[1], edge[2])
        return g
