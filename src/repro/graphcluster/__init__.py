"""Graph clustering substrate.

Provides the community-detection algorithms the paper relies on (§4.3):
**Leiden** as the default, with Louvain, label propagation and
Girvan–Newman as the pre-experiment alternatives, and the components /
min-cut machinery Almser's graph signals need.

Leiden, Louvain, :func:`local_move` and
:meth:`ModularityAggregates.from_partition` are one CSR kernel: they run
on a :class:`CSRGraph` (vertex positions, each vertex's neighbours in
adjacency order), which the ER problem graph hands them without
conversion; a dict :class:`Graph` passed in is copied to CSR form.
Their results are bit-identical to the dict implementation kept in
``tests/leiden_reference.py``. Label propagation, Girvan–Newman and the
components / min-cut helpers run on the dict :class:`Graph`, and load
on first access (PEP 562): a server clustering with Leiden never
imports them.
"""

from .._lazy import LazyRegistry, lazy_exports
from .csr import CSRGraph
from .graph import Graph
from .leiden import leiden
from .louvain import local_move, louvain
from .quality import (
    ModularityAggregates,
    communities_from_partition,
    cpm_quality,
    modularity,
    partition_from_communities,
)

__getattr__ = lazy_exports(globals(), {
    ".components": [
        "connected_components",
        "component_of",
        "transitive_closure_pairs",
        "bridges",
        "UnionFind",
    ],
    ".girvan_newman": ["girvan_newman", "edge_betweenness"],
    ".label_propagation": ["label_propagation"],
    ".mincut": ["stoer_wagner", "min_cut_edges"],
})

#: Algorithm name -> callable registry; MoRER's config selects by name.
CLUSTERING_ALGORITHMS = LazyRegistry(__name__, (
    "leiden",
    "louvain",
    "label_propagation",
    "girvan_newman",
))

__all__ = [
    "Graph",
    "CSRGraph",
    "leiden",
    "louvain",
    "local_move",
    "label_propagation",
    "girvan_newman",
    "edge_betweenness",
    "modularity",
    "ModularityAggregates",
    "cpm_quality",
    "partition_from_communities",
    "communities_from_partition",
    "connected_components",
    "component_of",
    "transitive_closure_pairs",
    "bridges",
    "UnionFind",
    "stoer_wagner",
    "min_cut_edges",
    "CLUSTERING_ALGORITHMS",
]
