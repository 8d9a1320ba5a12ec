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
components / min-cut helpers run on the dict :class:`Graph`.
"""

from .components import (
    UnionFind,
    bridges,
    component_of,
    connected_components,
    transitive_closure_pairs,
)
from .csr import CSRGraph
from .girvan_newman import edge_betweenness, girvan_newman
from .graph import Graph
from .label_propagation import label_propagation
from .leiden import leiden
from .louvain import local_move, louvain
from .mincut import min_cut_edges, stoer_wagner
from .quality import (
    ModularityAggregates,
    communities_from_partition,
    cpm_quality,
    modularity,
    partition_from_communities,
)

#: Algorithm name -> callable registry; MoRER's config selects by name.
CLUSTERING_ALGORITHMS = {
    "leiden": leiden,
    "louvain": louvain,
    "label_propagation": label_propagation,
    "girvan_newman": girvan_newman,
}

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
