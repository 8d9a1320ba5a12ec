"""The ER problem similarity graph :math:`G_P` (§4.3).

Vertices are ER problems (keyed by source pair), edges carry the
aggregated distribution similarity ``sim_p``. The graph is clustered
with Leiden by default and is extendable: new unsolved problems are
attached by comparing them against existing vertices (the ``sel_cov``
strategy of §4.5 reclusters after insertion).

Pairwise analysis is the O(P²·F) hot loop of construction, so the
graph keeps one :class:`~repro.core.signatures.ProblemSignature` per
problem (sorted columns, self-CDFs, histograms, stds computed once) and
evaluates edges with the tests' vectorized signature kernels. No pair
similarity is computed twice: every edge carries its pair's value, and
the pair cache keeps the evaluated pairs no live edge carries (pairs at
or below ``min_similarity``, pairs the prefilter kept from becoming
edges, the pairs of removed problems), so ``sel_cov`` re-insertions and
repeated reclustering never repeat a comparison.

Array store
-----------
:math:`G_P` lives in arrays, not in a dict graph. Vertices are rows in
insertion order. Edges are kept in *creation order* — each new vertex's
edges to earlier vertices, in candidate order — as ``(row, earlier
row, weight)`` arrays, the same rows a snapshot stores. Node strengths
and the total weight are accumulated edge by edge in that order (and
reduced by a removal in the removed vertex's adjacency order), the
float sequence a dict ``Graph.add_edge`` / ``remove_node`` would run.
:meth:`ERProblemGraph.csr` derives a
:class:`~repro.graphcluster.CSRGraph` once per mutation, listing each
vertex's neighbours in creation order of its edges; Leiden, Louvain and
the partition state's local move and aggregates run on it.
:meth:`ERProblemGraph.to_graph` gives an exact dict copy for the
dict-only algorithms (label propagation, Girvan–Newman) and the
maintenance scores.

One insertion body
------------------
:meth:`build`, :meth:`add_problems` and :meth:`add_problem` all run
the private :meth:`ERProblemGraph._insert` over a batch (a fit set, a
``solve_batch`` tick, one probe). Each member is compared with its
candidates — the existing vertices, then the earlier batch members —
and its edges and journal entry follow that order. Cached pairs are
reused, never recomputed; the batch's own pairs come from the
all-pairs matrix kernel (the fit path) and every other pair from the
one-vs-many kernel. Every member is validated before the first
mutation, so a rejected batch leaves the graph as it was.

The graph's own size is the one switch between the exact §4.5
insertion and the serving one (the same filter-then-verify pattern as
repository search, see :mod:`repro.core.sketch_index`). Below
``index_threshold`` vertices a new problem is compared with every
vertex. From ``index_threshold`` vertices on it is compared — and
connected — only with its ``max(64, 4 * sqrt(vertices))``
sketch-nearest vertices, which keeps insertion sublinear in graph size.

Mutation journal
----------------
Every :meth:`add_problem` / :meth:`add_problems` / :meth:`remove_problem`
appends a :class:`JournalEntry` recording the operation *and* the edges
it created or destroyed. A consumer caching a partition (MoRER's
:class:`~repro.core.partition_state.PartitionState`) remembers the
:attr:`version` it last synced at (its *cursor*) and later *replays*
``journal_since(cursor)`` — batch-folding inserts and removals into its
partition and modularity aggregates without touching the graph history.
This is the warm-started reclustering path: removals do not invalidate
it, since the replay drops the vertex from the seed and queues its
recorded neighbours. The partition state is the journal's only reader;
:meth:`trim_journal` reclaims the entries before its cursor.
:meth:`build` journals nothing: bulk construction is an epoch boundary
(``can_replay`` is false across it).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ..graphcluster import CLUSTERING_ALGORITHMS, CSRGraph
from .config import DEFAULT_INDEX_THRESHOLD, check_index_threshold
from .distribution import make_distribution_test
from .problem import ERProblem
from .signatures import (
    ProblemSignature,
    SignatureStore,
    pairwise_similarities,
    search_similarities,
)
from .sketch_index import SketchIndex

__all__ = ["ERProblemGraph", "JournalEntry"]

_NO_EDGES = (
    np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
    np.zeros(0), np.zeros(0, dtype=np.int64),
)


def _pair_key(key_a, key_b):
    """Order-independent cache key for a pair of problem keys."""
    return (key_a, key_b) if key_a <= key_b else (key_b, key_a)


class JournalEntry:
    """One graph mutation: the operation, the vertex, and its edges.

    ``edges`` maps neighbour key -> weight — the edges *created* by an
    insert or *destroyed* by a removal — which makes the journal
    self-contained: replaying it needs no access to graph state at the
    time of the mutation (the graph may have changed arbitrarily
    since).
    """

    __slots__ = ("op", "key", "edges")

    INSERT = "insert"
    REMOVE = "remove"

    def __init__(self, op, key, edges):
        self.op = op
        self.key = key
        self.edges = edges

    def to_json(self):
        """JSON-safe form for persistence."""
        return {
            "op": self.op,
            "key": list(self.key),
            "edges": [[list(k), w] for k, w in self.edges.items()],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["op"], tuple(data["key"]),
            {tuple(k): float(w) for k, w in data["edges"]},
        )

    def __repr__(self):
        return (
            f"JournalEntry({self.op!r}, {self.key!r}, "
            f"{len(self.edges)} edges)"
        )


class ERProblemGraph:
    """Similarity graph over ER problems.

    Problems enter through :meth:`build` (the fit set),
    :meth:`add_problems` or :meth:`add_problem`. All three run one
    insertion body: each new problem is compared with its candidates
    in a fixed order (existing vertices, then earlier batch members),
    and a pair already in the pair cache is never recomputed.

    Parameters
    ----------
    test : distribution test or str
        A distribution test with the signature kernels
        (``signature_similarity``; see
        :mod:`repro.core.distribution`) or a Table 3 short name
        (``"ks"``, ``"wd"``, ``"psi"``, ``"c2st"``).
    min_similarity : float
        Edges below this weight are omitted; 0.0 keeps every positive
        similarity (the default — Leiden handles dense graphs fine at
        this scale).
    signature_cache_size : int
        Capacity of the LRU signature store.
    index_threshold : int
        Vertex count from which an insertion is compared only with its
        ``max(64, 4 * sqrt(vertices))`` sketch-nearest vertices; below
        it, with every vertex (the exact §4.5 behaviour).
    """

    def __init__(self, test="ks", min_similarity=0.0,
                 signature_cache_size=4096,
                 index_threshold=DEFAULT_INDEX_THRESHOLD):
        if isinstance(test, str):
            test = make_distribution_test(test)
        check_index_threshold(index_threshold)
        self.test = test
        self.min_similarity = min_similarity
        self.index_threshold = int(index_threshold)
        # The pair cache stores one value under an order-normalized key,
        # so it is only sound for order-symmetric tests (KS/WD/PSI, not
        # C2ST, whose subsampling depends on argument order).
        self._cache_pairs = getattr(test, "symmetric", False)
        # The store: vertex rows in insertion order, edges in creation
        # order as (row, earlier row, weight, pair order) arrays (newly
        # inserted edges wait in _pending_edges until read), and the
        # strengths and total weight accumulated edge by edge.
        self._problems = {}
        self._keys = []
        self._rows = {}
        self._edge_store = _NO_EDGES
        self._pending_edges = []
        self._strength = np.zeros(0)
        self._total = 0.0
        self._csr = None
        # Mutation journal: entries cover versions
        # (_journal_offset, _journal_offset + len(_journal)]; bulk
        # construction journals nothing and starts past its inserts.
        self._journal = []
        self._journal_offset = 0
        #: Runtime instrumentation (never persisted): how many pairwise
        #: test evaluations ran and how many sketch rows were derived
        #: from signatures — the persistence suite asserts a restored
        #: graph's first solve recomputes nothing it saved.
        self.stats = {"pair_evals": 0, "sketch_rows_built": 0}
        self._signatures = SignatureStore(signature_cache_size)
        # Memoized pairs no live edge carries: pair -> (order, value).
        # The order is the pair's place in the sequence of first
        # evaluations (edges carry theirs too), which a snapshot lists
        # its stored pairs in.
        self._pair_cache = {}
        self._pairs_by_key = {}
        self._pair_clock = 0
        # key -> weakref of the feature matrix its cached pairs were
        # computed against; validates re-insertions independently of the
        # LRU signature store (eviction must not purge valid pairs).
        self._pair_witness = {}
        self._sketch_index = SketchIndex()
        # Vertices not yet in the sketch matrix, in insertion order (a
        # dict, not a set: the matrix rows, hence the stored sketch
        # order and sketch-distance ties, must not follow the hash seed).
        self._index_pending = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, problems, test="ks", min_similarity=0.0, **kwargs):
        """Build the graph over an iterable of initial ER problems.

        Runs the insertion body (:meth:`_insert`) over the whole set, so
        the pairs of an order-symmetric test go through one all-pairs
        matrix kernel and each vertex's edges are sliced straight from
        its matrix row. Construction journals nothing: it is an epoch
        boundary no consumer replays.
        """
        instance = cls(test, min_similarity, **kwargs)
        instance._insert(problems, journal=False)
        return instance

    def add_problem(self, problem):
        """Insert one problem: :meth:`add_problems` with a batch of one."""
        self.add_problems([problem])

    def add_problems(self, problems):
        """Insert problems and weight their edges (:meth:`_insert`).

        Below ``index_threshold`` vertices each new vertex is compared
        against *every* existing vertex — the exact §4.5 integration.
        From the threshold on the sketch index prefilters the
        ``max(64, 4 * sqrt(vertices))`` nearest vertices and only those
        are compared (and eligible for edges). Batch members are always
        compared with each other exactly. One journal entry per member is
        appended, so partition replays see the batch as the equivalent
        insert sequence.
        """
        self._insert(problems)

    def _insert(self, problems, journal=True):
        """The one body that adds problems to the graph.

        Each member is compared with its *candidates*, in this order:
        the existing vertices (all of them, or the sketch-nearest ones
        once the prefilter is active), then the earlier batch members.
        Its edges and journal entry follow that order. A pair already in
        the pair cache is never recomputed. Uncached pairs inside the
        batch come from the :func:`pairwise_similarities` matrix when
        :meth:`_batch_matrix` provides one; every other uncached pair
        goes through the one-vs-many
        :func:`~repro.core.signatures.search_similarities` kernel in
        ``sim_p(new, other)`` orientation. Every member is checked
        before the first mutation, so a rejected batch leaves the graph
        untouched. With ``journal`` false (bulk construction) the
        inserts advance :attr:`version` without journal entries.
        """
        problems = list(problems)
        rows = self._check_members(problems)
        keys = list(rows)
        prefilter = self._prefilter_active()
        if prefilter:
            self._sync_sketch_index()
        n_candidates = self._candidate_width() if prefilter else 0
        existing = list(self._keys)
        signatures = []
        for problem, key in zip(problems, keys):
            self._validate_pair_cache(key, problem.features)
            signatures.append(self._signatures.signature(key, problem.features))
        matrix = self._batch_matrix(keys, signatures)
        for i, (problem, key) in enumerate(zip(problems, keys)):
            signature = signatures[i]
            row = len(self._keys)
            if prefilter:
                outer = list(self._sketch_index.query(signature, n_candidates))
                outer_rows = np.array(
                    [self._rows[other] for other in outer], dtype=np.intp
                )
            else:
                outer = existing
                outer_rows = np.arange(len(existing))
            candidates = outer + keys[:i]
            candidate_rows = np.concatenate(
                [outer_rows, np.arange(row - i, row)]
            )
            values = np.empty(len(candidates))
            order = np.full(len(candidates), -1, dtype=np.int64)
            partners = self._pairs_by_key.get(key)
            if partners:
                for j, other in enumerate(candidates):
                    if other in partners:
                        order[j], values[j] = self._pair_cache[
                            _pair_key(key, other)
                        ]
            fresh = order < 0
            if matrix is not None:
                values[len(outer):] = matrix[i, :i]
                rest = np.flatnonzero(fresh[:len(outer)])
            else:
                rest = np.flatnonzero(fresh)
            if rest.size:
                values[rest] = search_similarities(
                    self.test, signature, [
                        signatures[rows[candidates[j]]]
                        if candidates[j] in rows
                        else self._signatures.signature(
                            candidates[j],
                            self._problems[candidates[j]].features,
                        )
                        for j in rest.tolist()
                    ],
                )
                self.stats["pair_evals"] += rest.size
            n_fresh = int(np.count_nonzero(fresh))
            order[fresh] = np.arange(
                self._pair_clock, self._pair_clock + n_fresh
            )
            self._pair_clock += n_fresh
            linked = values > self.min_similarity
            if self._cache_pairs:
                for j in np.flatnonzero(fresh & ~linked).tolist():
                    self._remember_pair(
                        key, candidates[j], float(values[j]), int(order[j])
                    )
                for j in np.flatnonzero(~fresh & linked).tolist():
                    self._forget_pair(key, candidates[j])
            weights = values[linked]
            neighbours = candidate_rows[linked]
            self._strength[neighbours] += weights
            self._strength = np.append(
                self._strength, np.cumsum(weights)[-1] if weights.size else 0.0
            )
            self._total = float(np.cumsum(np.r_[self._total, weights])[-1])
            self._pending_edges.append((
                np.full(weights.size, row, dtype=np.intp), neighbours,
                weights, order[linked],
            ))
            self._csr = None
            self._keys.append(key)
            self._rows[key] = row
            self._problems[key] = problem
            if journal:
                edges = dict(zip(
                    [candidates[j] for j in np.flatnonzero(linked).tolist()],
                    weights.tolist(),
                ))
                self._journal.append(
                    JournalEntry(JournalEntry.INSERT, key, edges)
                )
            else:
                self._journal_offset += 1
            self._index_pending[key] = None

    def _check_members(self, problems):
        """``{key: row}`` of a batch about to be inserted; raises
        ``ValueError`` on a key already in the graph or repeated in the
        batch, and on a feature count that differs from the graph's or
        from another member's."""
        rows = {}
        n_features = next(
            (problem.n_features for problem in self._problems.values()), None
        )
        for problem in problems:
            key = problem.key
            if key in self._problems or key in rows:
                raise ValueError(f"ER problem {key} already in the graph")
            rows[key] = len(rows)
            if n_features is None:
                n_features = problem.n_features
            elif problem.n_features != n_features:
                raise ValueError(
                    "ER problems must share the feature space "
                    f"({problem.n_features} vs {n_features} features)"
                )
        return rows

    def _batch_matrix(self, keys, signatures):
        """The batch's ``sim_p`` matrix from the matrix kernel, or
        ``None`` when its inner pairs go through the one-vs-many kernel
        instead: for a single member, for order-asymmetric tests (the
        matrix would pay both orientations) and when any inner pair is
        already cached."""
        if len(keys) < 2 or not self._cache_pairs:
            return None
        batch = set(keys)
        if any(batch & self._pairs_by_key.get(key, set()) for key in keys):
            return None
        self.stats["pair_evals"] += len(keys) * (len(keys) - 1) // 2
        return pairwise_similarities(signatures, self.test)

    def remove_problem(self, key):
        """Remove a problem vertex (used by repository maintenance).

        The problem's signature and memoized pair similarities are kept
        (its edges' values move into the pair cache), so re-inserting
        the same problem (``sel_cov`` churn) is free. The removal —
        with the destroyed edges — is journaled, so a cached partition
        *survives*: replay drops the vertex from the seed and queues its
        recorded neighbours instead of forcing a full recluster.
        """
        if key not in self._problems:
            raise KeyError(f"no ER problem {key} in the graph")
        row = self._rows[key]
        new, old, weight, order = self._edges()
        incident = (new == row) | (old == row)
        neighbours = np.where(new == row, old, new)[incident]
        lost = weight[incident]
        others = [self._keys[other] for other in neighbours.tolist()]
        edges = dict(zip(others, lost.tolist()))
        self._strength[neighbours] -= lost
        self._strength = np.delete(self._strength, row)
        self._total = float(np.cumsum(np.r_[self._total, -lost])[-1])
        if self._cache_pairs:
            for other, value, seen in zip(
                others, lost.tolist(), order[incident].tolist()
            ):
                self._remember_pair(key, other, value, seen)
        kept = ~incident
        new, old = new[kept], old[kept]
        self._edge_store = (
            new - (new > row), old - (old > row), weight[kept], order[kept],
        )
        self._csr = None
        del self._keys[row]
        del self._problems[key]
        self._rows = {other: i for i, other in enumerate(self._keys)}
        self._journal.append(JournalEntry(JournalEntry.REMOVE, key, edges))
        self._sketch_index.discard(key)
        self._index_pending.pop(key, None)

    def _edges(self):
        """``(rows, earlier rows, weights, pair orders)`` of every edge,
        in creation order."""
        if self._pending_edges:
            self._edge_store = tuple(
                np.concatenate(parts)
                for parts in zip(self._edge_store, *self._pending_edges)
            )
            self._pending_edges = []
        return self._edge_store

    # -- mutation journal --------------------------------------------------

    @property
    def version(self):
        """Monotonic mutation count (inserts + removals ever applied)."""
        return self._journal_offset + len(self._journal)

    @property
    def journal_length(self):
        """Retained (not yet trimmed) journal entries."""
        return len(self._journal)

    def can_replay(self, cursor):
        """Whether every mutation after ``cursor`` is still journaled."""
        return self._journal_offset <= cursor <= self.version

    def journal_since(self, cursor):
        """Entries covering versions ``(cursor, version]``, oldest
        first; ``None`` when ``cursor`` predates the retained journal
        (or a :meth:`build` epoch boundary) and replay is impossible."""
        if not self.can_replay(cursor):
            return None
        return self._journal[cursor - self._journal_offset:]

    def trim_journal(self, cursor):
        """Reclaim the entries before ``cursor`` (the reader's own
        position; clamped to :attr:`version`)."""
        cut = min(int(cursor), self.version) - self._journal_offset
        if cut > 0:
            del self._journal[:cut]
            self._journal_offset += cut

    # -- sketch prefilter --------------------------------------------------

    def _prefilter_active(self):
        """Whether insertions go through the sketch prefilter."""
        return len(self._problems) >= self.index_threshold

    def _candidate_width(self):
        """How many sketch-nearest vertices an insertion is compared
        with once the prefilter is active."""
        return max(64, int(4 * math.sqrt(len(self._problems))))

    def _sync_sketch_index(self):
        """Fold pending vertices into the sketch matrix, in insertion
        order."""
        for key in self._index_pending:
            problem = self._problems.get(key)
            if problem is not None:
                self._sketch_index.add(
                    key, self._signatures.signature(key, problem.features)
                )
                self.stats["sketch_rows_built"] += 1
        self._index_pending.clear()

    # -- pair cache --------------------------------------------------------

    def pair_similarity(self, key_a, key_b):
        """Memoized ``sim_p`` between two stored problems.

        Unlike :meth:`similarity` this is the actual test value, not
        the thresholded edge weight; missing pairs are computed (and,
        for order-symmetric tests, cached) on demand in the
        ``(key_a, key_b)`` orientation.
        """
        if self._cache_pairs:
            cached = self._pair_cache.get(_pair_key(key_a, key_b))
            if cached is not None:
                return cached[1]
            weight = self._edge_weight(key_a, key_b)
            if weight is not None:
                return weight
        problem_a = self._problems[key_a]
        problem_b = self._problems[key_b]
        similarity = self.test.signature_similarity(
            self._signatures.signature(key_a, problem_a.features),
            self._signatures.signature(key_b, problem_b.features),
        )
        if self._cache_pairs:
            self._remember_pair(key_a, key_b, similarity)
        self.stats["pair_evals"] += 1
        return similarity

    def _validate_pair_cache(self, key, features):
        """Purge ``key``'s memoized pairs unless they were computed
        against this exact feature matrix (identity via weakref, so an
        LRU-evicted signature does not invalidate valid pairs). The
        weakref's death callback evicts the key's pairs outright: once
        the matrix is garbage the cache can never be validated again,
        which bounds the pair cache to problems whose data is alive.
        """
        if not self._cache_pairs:
            return
        witness = self._pair_witness.get(key)
        if witness is None or witness() is not features:
            self._purge_pairs(key)
            self._pair_witness[key] = weakref.ref(
                features,
                lambda ref, key=key: self._drop_dead_witness(key, ref),
            )

    def _drop_dead_witness(self, key, ref):
        if self._pair_witness.get(key) is ref:
            self._purge_pairs(key)
            del self._pair_witness[key]

    def _remember_pair(self, key_a, key_b, similarity, order=None):
        """Cache a pair no live edge carries; ``order`` is its place in
        the evaluation sequence (a new one when omitted)."""
        if order is None:
            order = self._pair_clock
            self._pair_clock += 1
        self._pair_cache[_pair_key(key_a, key_b)] = (order, similarity)
        self._pairs_by_key.setdefault(key_a, set()).add(key_b)
        self._pairs_by_key.setdefault(key_b, set()).add(key_a)

    def _forget_pair(self, key_a, key_b):
        """Drop a cached pair that an edge carries again."""
        del self._pair_cache[_pair_key(key_a, key_b)]
        self._pairs_by_key[key_a].discard(key_b)
        self._pairs_by_key[key_b].discard(key_a)

    def _purge_pairs(self, key):
        """Drop every memoized pair involving ``key``."""
        for partner in self._pairs_by_key.pop(key, ()):
            self._pair_cache.pop(_pair_key(key, partner), None)
            partners = self._pairs_by_key.get(partner)
            if partners:
                partners.discard(key)

    def _edge_weight(self, key_a, key_b):
        """Weight of the edge ``{key_a, key_b}``, or ``None``."""
        row_a = self._rows.get(key_a)
        row_b = self._rows.get(key_b)
        if row_a is None or row_b is None:
            return None
        csr = self.csr()
        hit = np.flatnonzero(csr.neighbors(row_a) == row_b)
        if not hit.size:
            return None
        return float(csr.weights[csr.indptr[row_a] + hit[0]])

    # -- persistence -------------------------------------------------------

    def export_state(self):
        """``(meta, arrays)`` snapshot of the whole graph-side state,
        each fact stored once.

        ``meta`` is JSON-safe (problem identities, pair ids, journal,
        settings). ``arrays`` holds:

        * ``features`` — every problem's rows, concatenated in vertex
          order, with ``offsets`` (problem ``i`` owns rows
          ``offsets[i]:offsets[i + 1]``);
        * ``labels`` (int8) — the labelled problems' labels,
          concatenated, with the per-problem ``labelled`` flag;
        * ``edge_rows`` (int32 ``(row, earlier row)``) and
          ``edge_weights`` — the edge store as it is, in *creation
          order*: the vertices in insertion order, each with its edges
          to earlier vertices in candidate order;
        * ``pair_rows`` / ``pair_values`` — the pair cache's entries
          between stored problems: the evaluated pairs no edge carries
          (at or below ``min_similarity``, or left out by the
          prefilter), in the order they were first evaluated;
        * ``sketch_order`` / ``sketch_rows`` — the insertion-prefilter
          sketch matrix, when the prefilter is in play.

        Signature statistics are not stored: :meth:`restore_state`
        recomputes them lazily, bit for bit, from the features. Pairs
        involving removed problems are not persisted (their witness
        matrices don't survive the process anyway).
        """
        rows = self._rows
        problems = list(self._problems.values())
        meta = {
            "min_similarity": self.min_similarity,
            "index_threshold": self.index_threshold,
            "version": self.version,
            "journal": [entry.to_json() for entry in self._journal],
            "problems": [
                {
                    "source_a": problem.source_a,
                    "source_b": problem.source_b,
                    "feature_names": problem.feature_names,
                    "pair_ids": (
                        None if problem.pair_ids is None
                        else [list(pair) for pair in problem.pair_ids]
                    ),
                }
                for problem in problems
            ],
        }
        labels = [
            problem.labels for problem in problems
            if problem.labels is not None
        ]
        arrays = {
            "features": np.concatenate(
                [problem.features for problem in problems]
                or [np.empty((0, 0))]
            ),
            "offsets": np.cumsum(
                [0] + [problem.n_pairs for problem in problems]
            ),
            "labels": np.concatenate(labels or [np.empty(0)]).astype(
                np.int8
            ),
            "labelled": np.array(
                [problem.labels is not None for problem in problems],
                dtype=bool,
            ),
        }
        new, old, weights, _ = self._edges()
        arrays["edge_rows"] = np.stack([new, old], axis=1).astype(np.int32)
        arrays["edge_weights"] = weights.copy()
        stored = sorted(
            (order, rows[key_a], rows[key_b], value)
            for (key_a, key_b), (order, value) in self._pair_cache.items()
            if key_a in rows and key_b in rows
        )
        arrays["pair_rows"] = np.asarray(
            [(row_a, row_b) for _, row_a, row_b, _ in stored], dtype=np.int32
        ).reshape(-1, 2)
        arrays["pair_values"] = np.asarray(
            [value for *_, value in stored], dtype=float
        )
        if self._prefilter_active():
            self._sync_sketch_index()
            ids, sketch_rows = self._sketch_index.export_rows()
            arrays["sketch_order"] = np.asarray(
                [rows[key] for key in ids], dtype=np.int64
            )
            arrays["sketch_rows"] = sketch_rows
        return meta, arrays

    @classmethod
    def restore_state(cls, meta, arrays, test, **kwargs):
        """Rebuild a graph from an :meth:`export_state` snapshot.

        ``test`` must be (equivalent to) the distribution test the
        snapshot was taken under. Each problem's signature is seeded
        without statistics — the same code the live graph ran derives
        them lazily from the restored features, bit for bit — so the
        restored signature store reports zero
        :attr:`SignatureStore.builds`. The edge arrays are taken as
        they are; strengths and the total weight are summed edge by
        edge in creation order, which gives back the live graph's
        values bit for bit. After removals only the adjacency is
        exact, since the live graph subtracted the removed weights
        from its strengths and total, which may differ from the
        re-summed values by ulps. For order-symmetric tests the stored
        extra pairs refill the pair cache, ordered after every edge.
        The sketch matrix comes back preloaded, so the first
        prefiltered insertion derives no sketch row.
        """
        instance = cls(
            test, meta["min_similarity"],
            index_threshold=meta["index_threshold"], **kwargs,
        )
        # The zero-rebuild guarantee needs every seeded signature to
        # actually fit: grow the LRU to the restored problem count.
        instance._signatures.max_size = max(
            instance._signatures.max_size, len(meta["problems"])
        )
        features = arrays["features"]
        offsets = arrays["offsets"].tolist()
        labels = arrays["labels"]
        labelled = arrays["labelled"].tolist()
        labels_at = 0
        keys = instance._keys
        for i, spec in enumerate(meta["problems"]):
            start, stop = offsets[i], offsets[i + 1]
            problem_labels = None
            if labelled[i]:
                problem_labels = labels[labels_at:labels_at + stop - start]
                labels_at += stop - start
            pair_ids = spec["pair_ids"]
            problem = ERProblem(
                spec["source_a"], spec["source_b"], features[start:stop],
                problem_labels,
                None if pair_ids is None else [tuple(p) for p in pair_ids],
                spec["feature_names"],
            )
            key = problem.key
            instance._rows[key] = len(keys)
            keys.append(key)
            instance._problems[key] = problem
            instance._signatures.put(key, ProblemSignature(problem.features))
            if instance._cache_pairs:
                instance._pair_witness[key] = weakref.ref(
                    problem.features,
                    lambda ref, key=key: instance._drop_dead_witness(
                        key, ref
                    ),
                )
        edge_rows = arrays["edge_rows"].astype(np.intp)
        weights = np.array(arrays["edge_weights"], dtype=float)
        n_edges = len(weights)
        instance._edge_store = (
            edge_rows[:, 0].copy(), edge_rows[:, 1].copy(), weights,
            np.arange(n_edges, dtype=np.int64),
        )
        instance._strength = np.bincount(
            edge_rows.reshape(-1), weights=np.repeat(weights, 2),
            minlength=len(keys),
        )
        instance._total = float(np.cumsum(weights)[-1]) if n_edges else 0.0
        instance._pair_clock = n_edges
        if instance._cache_pairs:
            extras = zip(
                arrays["pair_rows"].tolist(), arrays["pair_values"].tolist()
            )
            for (row_a, row_b), value in extras:
                instance._remember_pair(keys[row_a], keys[row_b], value)
        if "sketch_rows" in arrays:
            instance._sketch_index.bulk_load(
                [keys[int(row)] for row in arrays["sketch_order"]],
                arrays["sketch_rows"],
            )
        else:
            instance._index_pending.update(dict.fromkeys(keys))
        instance._journal = [
            JournalEntry.from_json(entry) for entry in meta["journal"]
        ]
        instance._journal_offset = meta["version"] - len(instance._journal)
        return instance

    # -- access --------------------------------------------------------------

    def __contains__(self, key):
        return key in self._problems

    def __len__(self):
        return len(self._problems)

    def problem(self, key):
        """The :class:`ERProblem` stored under ``key``."""
        return self._problems[key]

    def problems(self):
        """All stored problems (dict view)."""
        return dict(self._problems)

    def similarity(self, key_a, key_b):
        """Edge weight between two problems (0.0 if below threshold)."""
        weight = self._edge_weight(key_a, key_b)
        return 0.0 if weight is None else weight

    def csr(self):
        """The graph as a :class:`~repro.graphcluster.CSRGraph`: vertices
        in insertion order, each listing its neighbours in creation
        order of its edges, with the accumulated strengths and total
        weight. Derived once per mutation and shared until the next;
        treat it as read-only."""
        if self._csr is None:
            new, old, weights, _ = self._edges()
            self._csr = CSRGraph.from_edges(
                list(self._keys), new, old, weights, self._strength.copy(),
                self._total, dict(self._rows),
            )
        return self._csr

    def to_graph(self):
        """An exact dict :class:`~repro.graphcluster.Graph` copy of the
        graph — node order, adjacency order, weights, strengths and
        total weight — for the algorithms that walk adjacency dicts
        (label propagation, Girvan–Newman, the maintenance scores)."""
        return self.csr().to_graph()

    # -- clustering ----------------------------------------------------------

    def cluster(self, algorithm="leiden", resolution=1.0, random_state=None):
        """Partition the problems into clusters of similar ER tasks.

        Returns a list of sets of problem keys. Isolated vertices come
        back as singleton clusters. Leiden and Louvain run on
        :meth:`csr`; label propagation and Girvan–Newman on
        :meth:`to_graph`.
        """
        if algorithm not in CLUSTERING_ALGORITHMS:
            raise KeyError(
                f"unknown clustering algorithm {algorithm!r}; choose from "
                f"{sorted(CLUSTERING_ALGORITHMS)}"
            )
        if len(self._problems) == 0:
            return []
        func = CLUSTERING_ALGORITHMS[algorithm]
        if algorithm == "girvan_newman":
            communities = func(self.to_graph())
        elif algorithm in ("leiden", "louvain"):
            communities = func(
                self.csr(), resolution=resolution, random_state=random_state
            )
        else:
            communities = func(self.to_graph(), random_state=random_state)
        return [set(community) for community in communities]
