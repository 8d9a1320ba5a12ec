"""The warm ``sel_cov`` partition: seed, aggregates, journal cursor.

A :class:`PartitionState` is everything MoRER needs to answer "what
does the cluster structure look like *now*" without re-running Leiden:

* ``partition`` — the last accepted ``node -> label`` map;
* ``aggregates`` — delta-tracked per-community :math:`(L_c, K_c)` sums
  (:class:`~repro.graphcluster.ModularityAggregates`), so the
  ``recluster_tolerance`` degradation check never pays an O(edges)
  :func:`~repro.graphcluster.modularity` pass;
* ``cursor`` — the graph :attr:`~repro.core.graph.ERProblemGraph.version`
  the partition reflects;
* ``reference_modularity`` / ``inserts_since_full`` — the degradation
  reference from the last full run and how many insertions the warm
  streak has absorbed since.

:meth:`replay` is the one mutation path: it reads the graph's mutation
journal past the cursor, folds every insert (new singleton, edges into
the aggregates) and removal (drop the vertex, queue its recorded
neighbours) into a *trial* copy, then runs one bounded
:func:`~repro.graphcluster.local_move` over all perturbed vertices —
one local move per replay regardless of how many probes a batch
inserted or how many removals repository maintenance issued in between.
The caller inspects the trial's quality and either :meth:`accept`\\ s it
or falls back to a full recluster; a rejected trial leaves the state
untouched.

Both the local move and :meth:`from_full_run`'s aggregates pass run
the CSR kernel of :mod:`repro.graphcluster` on the graph's cached
:meth:`~repro.core.graph.ERProblemGraph.csr` view. The partition's
mixed labels (ints from full runs, problem keys and negative ints from
replays) become integer codes for the kernel and come back as they
were, in the partition dict's key order, so the state and its
persisted form are the ones the dict implementation produced.

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
    """Warm partition + modularity aggregates + journal cursor."""

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
            partition, graph.version, aggregates,
            aggregates.quality(resolution),
        )

    def replay(self, graph, resolution=1.0, random_state=None):
        """Fold the journal past the cursor into a trial partition.

        Returns a :class:`ReplayOutcome`, or ``None`` when the journal
        no longer reaches back to the cursor (entries trimmed, or a
        bulk :meth:`~repro.core.graph.ERProblemGraph.build` epoch) and
        only a full recluster can answer. ``self`` is never mutated —
        call :meth:`accept` on the outcome to commit.
        """
        entries = graph.journal_since(self.cursor)
        if entries is None:
            return None
        rng = check_random_state(random_state)
        partition = dict(self.partition)
        aggregates = self.aggregates.copy()
        # Labels already in use: an inserted vertex must start as a
        # *genuine* singleton. Its own key is the natural label, but
        # after remove/re-insert churn that key may still label a
        # surviving community (a neighbour moved into it before the
        # removal) — silently joining it would corrupt the aggregates,
        # so collisions fall back to fresh negative ints (full runs
        # only ever assign labels >= 0).
        used = set(partition.values())
        fresh = -1
        changed = set()
        inserts = 0
        for entry in entries:
            edges = entry.edges
            self_loop = edges.get(entry.key, 0.0)
            if self_loop:
                edges = {
                    k: w for k, w in edges.items() if k != entry.key
                }
            if entry.op == entry.INSERT:
                label = entry.key
                if label in used:
                    while fresh in used:
                        fresh -= 1
                    label = fresh
                    fresh -= 1
                used.add(label)
                partition[entry.key] = label
                aggregates.add_node(
                    label, edges, partition, self_loop
                )
                changed.add(entry.key)
                inserts += 1
            else:
                label = partition.pop(entry.key, None)
                changed.discard(entry.key)
                if label is not None:
                    aggregates.remove_node(
                        label, edges, partition, self_loop
                    )
                changed.update(edges)
        csr = graph.csr()
        queued = np.zeros(len(csr), dtype=bool)
        for key in changed:
            row = csr.index.get(key)
            if row is not None:
                queued[row] = True
                queued[csr.neighbors(row)] = True
        partition, _ = local_move(
            csr, partition, resolution, rng,
            nodes=[csr.nodes[row] for row in np.flatnonzero(queued)],
            aggregates=aggregates,
        )
        return ReplayOutcome(
            partition, aggregates, aggregates.quality(resolution),
            inserts, graph.version,
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
