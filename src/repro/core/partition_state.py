"""The warm ``sel_cov`` partition: seed, aggregates, row cursor.

A :class:`PartitionState` is everything MoRER needs to answer "what
does the cluster structure look like *now*" without re-running Leiden:

* ``partition`` — the last accepted ``node -> label`` map;
* ``aggregates`` — delta-tracked per-community :math:`(L_c, K_c)` sums
  (:class:`~repro.graphcluster.ModularityAggregates`), so the
  :data:`~repro.core.morer.RECLUSTER_TOLERANCE` degradation check
  never pays an O(edges) :func:`~repro.graphcluster.modularity` pass;
* ``cursor`` — how many graph rows the partition covers (the graph's
  :attr:`~repro.core.graph.ERProblemGraph.version` when it was synced);
* ``reference_modularity`` / ``inserts_since_full`` — the degradation
  reference from the last full run and how many insertions the warm
  streak has absorbed since.

:meth:`replay` is the one mutation path. The graph only grows, so the
rows past the cursor are everything that changed: replay folds each of
them (a new singleton, its edges to earlier rows into the aggregates)
into a *trial* copy, then runs one bounded
:func:`~repro.graphcluster.local_move` over all perturbed vertices —
one local move per replay regardless of how many probes a batch
inserted. The caller inspects the trial's quality and either
:meth:`accept`\\ s it or falls back to a full recluster; a rejected
trial leaves the state untouched.

Both the local move and :meth:`from_full_run`'s aggregates pass run
the CSR kernel of :mod:`repro.graphcluster` on the graph's cached
:meth:`~repro.core.graph.ERProblemGraph.csr` view, and replay reads the
new rows from the same view. The partition's mixed labels (ints from
full runs, problem keys from replays) become integer codes for the
kernel and come back as they were, in the partition dict's key order,
so the state and its persisted form are the ones the dict
implementation produced.

The state is JSON-serialisable (:meth:`to_dict` / :meth:`from_dict`),
which is what makes MoRER-level persistence cheap: a restarted process
resumes the warm streak mid-stride.
"""

from __future__ import annotations

import numpy as np

from ..graphcluster import ModularityAggregates, local_move
from ..ml.utils import check_random_state

__all__ = ["PartitionState", "ReplayOutcome"]


class ReplayOutcome:
    """A trial partition produced by :meth:`PartitionState.replay`."""

    __slots__ = ("partition", "aggregates", "quality", "inserts", "cursor")

    def __init__(self, partition, aggregates, quality, inserts, cursor):
        self.partition = partition
        self.aggregates = aggregates
        self.quality = quality
        self.inserts = inserts
        self.cursor = cursor


def _encode_label(label):
    """Labels are ints (full runs) or problem keys (replay singletons)."""
    return list(label) if isinstance(label, tuple) else label


def _decode_label(label):
    return tuple(label) if isinstance(label, list) else label


class PartitionState:
    """Warm partition + modularity aggregates + row cursor."""

    def __init__(self, partition, cursor, aggregates,
                 reference_modularity, inserts_since_full=0):
        self.partition = partition
        self.cursor = int(cursor)
        self.aggregates = aggregates
        self.reference_modularity = float(reference_modularity)
        self.inserts_since_full = int(inserts_since_full)

    @classmethod
    def from_full_run(cls, graph, partition, resolution=1.0):
        """State after a full recluster: fresh aggregates (the one
        O(edges) pass, paid only here), the quality as the new
        degradation reference, and a reset warm streak."""
        aggregates = ModularityAggregates.from_partition(
            graph.csr(), partition
        )
        return cls(
            partition, len(graph), aggregates,
            aggregates.quality(resolution),
        )

    def replay(self, graph, resolution=1.0, random_state=None):
        """Fold the rows past the cursor into a trial partition.

        Each new row joins as a singleton labelled by its own key, with
        its edges to earlier rows — the head of its
        :meth:`~repro.core.graph.ERProblemGraph.csr` neighbour list, in
        the candidate order it was inserted with — added to the
        aggregates. Returns a :class:`ReplayOutcome`; ``self`` is never
        mutated — call :meth:`accept` on the outcome to commit.
        """
        rng = check_random_state(random_state)
        partition = dict(self.partition)
        aggregates = self.aggregates.copy()
        csr = graph.csr()
        nodes = csr.nodes
        queued = np.zeros(len(csr), dtype=bool)
        for row in range(self.cursor, len(csr)):
            neighbours = csr.neighbors(row)
            earlier = int(np.count_nonzero(neighbours < row))
            start = csr.indptr[row]
            key = nodes[row]
            partition[key] = key
            aggregates.add_node(key, zip(
                [nodes[other] for other in neighbours[:earlier].tolist()],
                csr.weights[start:start + earlier].tolist(),
            ), partition)
            queued[row] = True
            queued[neighbours] = True
        partition, _ = local_move(
            csr, partition, resolution, rng,
            nodes=[nodes[row] for row in np.flatnonzero(queued)],
            aggregates=aggregates,
        )
        return ReplayOutcome(
            partition, aggregates, aggregates.quality(resolution),
            len(csr) - self.cursor, len(csr),
        )

    def accept(self, outcome):
        """Commit a replay trial; the warm streak absorbs its inserts."""
        self.partition = outcome.partition
        self.aggregates = outcome.aggregates
        self.cursor = outcome.cursor
        self.inserts_since_full += outcome.inserts

    # -- persistence -------------------------------------------------------

    def to_dict(self):
        """JSON-safe snapshot (labels may be ints or key tuples)."""
        return {
            "cursor": self.cursor,
            "reference_modularity": self.reference_modularity,
            "inserts_since_full": self.inserts_since_full,
            "partition": [
                [list(node), _encode_label(label)]
                for node, label in self.partition.items()
            ],
            "aggregates": {
                "m": self.aggregates.m,
                "intra": [
                    [_encode_label(label), value]
                    for label, value in self.aggregates.intra.items()
                ],
                "strength": [
                    [_encode_label(label), value]
                    for label, value in self.aggregates.strength.items()
                ],
            },
        }

    @classmethod
    def from_dict(cls, data):
        aggregates = ModularityAggregates(
            data["aggregates"]["m"],
            {
                _decode_label(label): value
                for label, value in data["aggregates"]["intra"]
            },
            {
                _decode_label(label): value
                for label, value in data["aggregates"]["strength"]
            },
        )
        return cls(
            {
                tuple(node): _decode_label(label)
                for node, label in data["partition"]
            },
            data["cursor"],
            aggregates,
            data["reference_modularity"],
            data["inserts_since_full"],
        )

    def __repr__(self):
        return (
            f"PartitionState(cursor={self.cursor}, "
            f"communities={len(set(self.partition.values()))}, "
            f"inserts_since_full={self.inserts_since_full})"
        )
