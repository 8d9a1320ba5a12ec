"""The ER problem similarity graph :math:`G_P` (§4.3).

Vertices are ER problems (keyed by source pair), edges carry the
aggregated distribution similarity ``sim_p``. The graph is clustered
with Leiden by default and is extendable: new unsolved problems are
attached by comparing them against existing vertices (the ``sel_cov``
strategy of §4.5 reclusters after insertion).

Pairwise analysis is the O(P²·F) hot loop of construction, so the
graph keeps one :class:`~repro.core.signatures.ProblemSignature` per
problem (sorted columns, self-CDFs, histograms, stds computed once) and
evaluates edges with the tests' vectorized signature kernels. Computed
pair similarities are memoized in a pair cache that survives
:meth:`remove_problem`, so ``sel_cov`` re-insertions and repeated
reclustering never repeat a comparison.

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

Two mechanisms keep *insertion* sublinear in graph size at scale:

* a sketch-index prefilter (the same filter-then-verify pattern as
  repository search, see :mod:`repro.core.sketch_index`): once the
  graph outgrows ``index_threshold`` vertices, a new problem is
  compared — and connected — only to its ``n_candidates``
  sketch-nearest vertices instead of every vertex;
* warm-started reclustering: :meth:`cluster` accepts the previous
  partition (``seed_communities``) plus the inserted keys
  (``changed_keys``) and routes to
  :func:`~repro.graphcluster.incremental_leiden`, which re-examines
  only the perturbed neighbourhood.

Both are off below the threshold (and via ``use_index=False``), where
the exact all-vertices behaviour is preserved byte for byte.

Mutation journal
----------------
Every :meth:`add_problem` / :meth:`add_problems` / :meth:`remove_problem`
appends a :class:`JournalEntry` recording the operation *and* the edges
it created or destroyed. A consumer caching a partition (MoRER's
:class:`~repro.core.partition_state.PartitionState`) remembers the
:attr:`version` it last synced at (its *cursor*) and later *replays*
``journal_since(cursor)`` — batch-folding inserts and removals into its
partition and modularity aggregates without touching the graph history.
Removals therefore no longer invalidate warm starts: the replay drops
the vertex from the seed and queues its recorded neighbours. Consumed
entries are reclaimed with :meth:`trim_journal`; :meth:`build` folds
its entries into the offset (bulk construction is an epoch boundary,
``can_replay`` is false across it).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ..graphcluster import CLUSTERING_ALGORITHMS, Graph, incremental_leiden
from .config import DEFAULT_INDEX_THRESHOLD, check_index_settings
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
    use_index : {"auto", True, False}
        Sketch-prefilter insertions: compare a new problem only against
        its sketch-nearest existing vertices. ``"auto"`` (the default)
        engages at ``index_threshold`` vertices; ``False`` always
        compares against every vertex (the exact §4.5 behaviour).
    index_threshold : int
        Vertex count at which ``"auto"`` starts prefiltering.
    n_candidates : int
        How many sketch-nearest vertices survive into the exact
        comparison (and edge creation); 0 means the per-insert default
        ``max(64, 4 * sqrt(vertices))``.
    sketch_bins : int
        Histogram bins per feature in the sketch vectors.
    """

    def __init__(self, test="ks", min_similarity=0.0,
                 signature_cache_size=4096, use_index="auto",
                 index_threshold=DEFAULT_INDEX_THRESHOLD, n_candidates=0,
                 sketch_bins=16):
        if isinstance(test, str):
            test = make_distribution_test(test)
        check_index_settings(use_index, index_threshold)
        if n_candidates < 0:
            raise ValueError("n_candidates must be >= 0")
        self.test = test
        self.min_similarity = min_similarity
        self.use_index = use_index
        self.index_threshold = int(index_threshold)
        self.n_candidates = int(n_candidates)
        # The pair cache stores one value under an order-normalized key,
        # so it is only sound for order-symmetric tests (KS/WD/PSI, not
        # C2ST, whose subsampling depends on argument order).
        self._cache_pairs = getattr(test, "symmetric", False)
        self.graph = Graph()
        # Mutation journal: entries cover versions
        # (_journal_offset, _journal_offset + len(_journal)]; bulk
        # construction folds its entries into the offset.
        self._journal = []
        self._journal_offset = 0
        #: Runtime instrumentation (never persisted): how many pairwise
        #: test evaluations ran and how many sketch rows were derived
        #: from signatures — the persistence suite asserts a restored
        #: graph's first solve recomputes nothing it saved.
        self.stats = {"pair_evals": 0, "sketch_rows_built": 0}
        self._problems = {}
        self._signatures = SignatureStore(signature_cache_size)
        self._pair_cache = {}
        self._pairs_by_key = {}
        # key -> weakref of the feature matrix its cached pairs were
        # computed against; validates re-insertions independently of the
        # LRU signature store (eviction must not purge valid pairs).
        self._pair_witness = {}
        self._sketch_index = SketchIndex(n_bins=sketch_bins)
        self._index_pending = set()
        # Registered journal consumers (token -> cursor). Process-local
        # and never persisted: every consumer must re-register after a
        # restore. trim_journal() never reclaims past the slowest one.
        self._consumers = {}
        self._next_consumer_token = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, problems, test="ks", min_similarity=0.0, **kwargs):
        """Build the graph over an iterable of initial ER problems.

        Runs the insertion body (:meth:`_insert`) over the whole set, so
        the pairs of an order-symmetric test go through one all-pairs
        matrix kernel, then folds the journal into an epoch boundary:
        no consumer replays the O(n²) construction.
        """
        instance = cls(test, min_similarity, **kwargs)
        instance._insert(problems)
        instance.trim_journal(instance.version)
        return instance

    def add_problem(self, problem):
        """Insert one problem: :meth:`add_problems` with a batch of one."""
        self.add_problems([problem])

    def add_problems(self, problems):
        """Insert problems and weight their edges (:meth:`_insert`).

        Below ``index_threshold`` (or with ``use_index=False``) each new
        vertex is compared against *every* existing vertex — the exact
        §4.5 integration. Past the threshold the sketch index prefilters
        ``n_candidates`` nearest vertices and only those are compared
        (and eligible for edges). Batch members are always compared
        with each other exactly. One journal entry per member is
        appended, so partition replays see the batch as the equivalent
        insert sequence.
        """
        self._insert(problems)

    def _insert(self, problems):
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
        untouched.
        """
        problems = list(problems)
        rows = self._check_members(problems)
        keys = list(rows)
        prefilter = self._prefilter_active()
        if prefilter:
            self._sync_sketch_index()
        n_candidates = self._resolve_candidates() if prefilter else 0
        existing = list(self._problems)
        signatures = []
        for problem, key in zip(problems, keys):
            self._validate_pair_cache(key, problem.features)
            signatures.append(self._signatures.signature(key, problem.features))
        matrix = self._batch_matrix(keys, signatures)
        for i, (problem, key) in enumerate(zip(problems, keys)):
            signature = signatures[i]
            if prefilter:
                candidates = self._sketch_index.query(signature, n_candidates)
            else:
                candidates = existing
            candidates = list(candidates) + keys[:i]
            partners = self._pairs_by_key.get(key, ())
            values = {
                other: self._pair_cache[_pair_key(key, other)]
                for other in candidates if other in partners
            }
            fresh = [other for other in candidates if other not in values]
            if matrix is not None:
                values.update(zip(keys[:i], matrix[i, :i].tolist()))
            rest = [other for other in fresh if other not in values]
            if rest:
                similarities = search_similarities(self.test, signature, [
                    signatures[rows[other]] if other in rows
                    else self._signatures.signature(
                        other, self._problems[other].features
                    )
                    for other in rest
                ])
                values.update(zip(rest, map(float, similarities)))
                self.stats["pair_evals"] += len(rest)
            if self._cache_pairs:
                for other in fresh:
                    self._remember_pair(key, other, values[other])
            self.graph.add_node(key)
            edges = {}
            for other in candidates:
                similarity = values[other]
                if similarity > self.min_similarity:
                    self.graph.add_edge(key, other, similarity)
                    edges[other] = similarity
            self._problems[key] = problem
            self._journal.append(JournalEntry(JournalEntry.INSERT, key, edges))
            self._index_pending.add(key)

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
        so re-inserting the same problem (``sel_cov`` churn) is free.
        The removal — with the destroyed edges — is journaled, so a
        cached partition *survives*: replay drops the vertex from the
        seed and queues its recorded neighbours instead of forcing a
        full recluster.
        """
        if key not in self._problems:
            raise KeyError(f"no ER problem {key} in the graph")
        edges = {
            other: float(weight)
            for other, weight in self.graph.neighbors(key).items()
            if other != key
        }
        self.graph.remove_node(key)
        del self._problems[key]
        self._journal.append(JournalEntry(JournalEntry.REMOVE, key, edges))
        self._sketch_index.discard(key)
        self._index_pending.discard(key)

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
        """Reclaim entries every consumer has seen.

        ``cursor`` is the *caller's* own position; the effective
        compaction watermark is the minimum of it and every registered
        consumer's cursor (:meth:`register_consumer`), so independent
        consumers — the live partition cache, a background saver, a
        future replication shard — can trail the stream at their own
        pace without losing entries to each other's trims.
        """
        watermark = min([int(cursor), *self._consumers.values()])
        cut = min(watermark, self.version) - self._journal_offset
        if cut > 0:
            del self._journal[:cut]
            self._journal_offset += cut

    def register_consumer(self, cursor=None):
        """Register a journal consumer at ``cursor`` (default: now).

        Returns an opaque token for :meth:`advance_consumer` /
        :meth:`unregister_consumer`. While registered, the consumer's
        cursor bounds :meth:`trim_journal`'s compaction watermark, so
        entries it has not replayed yet survive other consumers'
        trims. Registrations are process-local — they are not part of
        :meth:`export_state` and must be re-established after
        :meth:`restore_state`.
        """
        if cursor is None:
            cursor = self.version
        cursor = int(cursor)
        if not self._journal_offset <= cursor <= self.version:
            raise ValueError(
                f"consumer cursor {cursor} is outside the retained "
                f"journal [{self._journal_offset}, {self.version}]"
            )
        token = self._next_consumer_token
        self._next_consumer_token += 1
        self._consumers[token] = cursor
        return token

    def advance_consumer(self, token, cursor=None):
        """Move a registered consumer's cursor forward (default: to the
        current :attr:`version` — "caught up")."""
        if token not in self._consumers:
            raise KeyError(f"unknown journal consumer token {token!r}")
        if cursor is None:
            cursor = self.version
        cursor = int(cursor)
        if cursor < self._consumers[token]:
            raise ValueError(
                f"consumer cursor may only advance "
                f"({self._consumers[token]} -> {cursor})"
            )
        if cursor > self.version:
            raise ValueError(
                f"consumer cursor {cursor} is past version {self.version}"
            )
        self._consumers[token] = cursor

    def consumer_cursor(self, token):
        """The registered cursor of a consumer token."""
        return self._consumers[token]

    def unregister_consumer(self, token):
        """Drop a consumer; its cursor no longer bounds compaction."""
        self._consumers.pop(token, None)

    # -- sketch prefilter --------------------------------------------------

    def _prefilter_active(self):
        """Whether insertions go through the sketch prefilter."""
        if not self._problems:
            return False
        if self.use_index == "auto":
            return len(self._problems) >= self.index_threshold
        return bool(self.use_index)

    def _resolve_candidates(self):
        if self.n_candidates:
            return self.n_candidates
        return max(64, int(4 * math.sqrt(len(self._problems))))

    def _sync_sketch_index(self):
        """Fold pending vertices into the sketch matrix."""
        for key in list(self._index_pending):
            problem = self._problems.get(key)
            if problem is not None:
                self._sketch_index.add(
                    key, self._signatures.signature(key, problem.features)
                )
                self.stats["sketch_rows_built"] += 1
            self._index_pending.discard(key)

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
                return cached
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

    def _remember_pair(self, key_a, key_b, similarity):
        self._pair_cache[_pair_key(key_a, key_b)] = similarity
        self._pairs_by_key.setdefault(key_a, set()).add(key_b)
        self._pairs_by_key.setdefault(key_b, set()).add(key_a)

    def _purge_pairs(self, key):
        """Drop every memoized pair involving ``key``."""
        for partner in self._pairs_by_key.pop(key, ()):
            self._pair_cache.pop(_pair_key(key, partner), None)
            partners = self._pairs_by_key.get(partner)
            if partners:
                partners.discard(key)

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
          ``edge_weights`` in *creation order*: the vertices in
          insertion order, each with its edges to earlier vertices in
          its own adjacency order. Replaying ``add_edge`` in that order
          rebuilds every adjacency dict, strength and the total weight
          as the live graph built them;
        * ``pair_rows`` / ``pair_values`` — only the memoized pairs no
          edge carries with the same value (pairs at or below
          ``min_similarity``), since every edge is a cached pair;
        * ``sketch_order`` / ``sketch_rows`` — the insertion-prefilter
          sketch matrix, when the prefilter is in play.

        Signature statistics are not stored: :meth:`restore_state`
        recomputes them lazily, bit for bit, from the features. Pairs
        involving removed problems are not persisted (their witness
        matrices don't survive the process anyway).
        """
        keys = list(self._problems)
        rows = {key: i for i, key in enumerate(keys)}
        problems = list(self._problems.values())
        meta = {
            "min_similarity": self.min_similarity,
            "use_index": self.use_index,
            "index_threshold": self.index_threshold,
            "n_candidates": self.n_candidates,
            "sketch_bins": self._sketch_index.n_bins,
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
        edge_rows, edge_weights = [], []
        for row, key in enumerate(keys):
            for other, weight in self.graph.neighbors(key).items():
                if rows[other] < row:
                    edge_rows.append((row, rows[other]))
                    edge_weights.append(weight)
        arrays["edge_rows"] = np.asarray(
            edge_rows, dtype=np.int32
        ).reshape(-1, 2)
        arrays["edge_weights"] = np.asarray(edge_weights, dtype=float)
        pair_rows, pair_values = [], []
        for (key_a, key_b), value in self._pair_cache.items():
            row_a = rows.get(key_a)
            row_b = rows.get(key_b)
            if (
                row_a is not None and row_b is not None
                and self.graph.edge_weight(key_a, key_b, None) != value
            ):
                pair_rows.append((row_a, row_b))
                pair_values.append(value)
        arrays["pair_rows"] = np.asarray(
            pair_rows, dtype=np.int32
        ).reshape(-1, 2)
        arrays["pair_values"] = np.asarray(pair_values, dtype=float)
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
        :attr:`SignatureStore.builds`. Replaying the edges in creation
        order gives back the live graph's node order, every adjacency
        dict, every strength and the total weight bit for bit; after
        removals only the adjacency is exact, since the live graph
        subtracted the removed weights from its strengths and total,
        which may differ from the replayed sums by ulps. For
        order-symmetric tests the pair cache is rebuilt from the edges
        plus the stored extra pairs. The sketch matrix comes back
        preloaded, so the first prefiltered insertion derives no sketch
        row.
        """
        instance = cls(
            test, meta["min_similarity"],
            use_index=meta["use_index"],
            index_threshold=meta["index_threshold"],
            n_candidates=meta["n_candidates"],
            sketch_bins=meta["sketch_bins"],
            **kwargs,
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
        keys = []
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
            keys.append(key)
            instance.graph.add_node(key)
            instance._problems[key] = problem
            instance._signatures.put(key, ProblemSignature(problem.features))
            if instance._cache_pairs:
                instance._pair_witness[key] = weakref.ref(
                    problem.features,
                    lambda ref, key=key: instance._drop_dead_witness(
                        key, ref
                    ),
                )
        edges = list(zip(
            arrays["edge_rows"].tolist(), arrays["edge_weights"].tolist()
        ))
        for (row, earlier), weight in edges:
            instance.graph.add_edge(keys[row], keys[earlier], weight)
        if instance._cache_pairs:
            extras = zip(
                arrays["pair_rows"].tolist(), arrays["pair_values"].tolist()
            )
            for (row_a, row_b), value in [*edges, *extras]:
                instance._remember_pair(keys[row_a], keys[row_b], value)
        if "sketch_rows" in arrays:
            instance._sketch_index.bulk_load(
                [keys[int(row)] for row in arrays["sketch_order"]],
                arrays["sketch_rows"],
            )
        else:
            instance._index_pending.update(keys)
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
        return self.graph.edge_weight(key_a, key_b)

    # -- clustering ----------------------------------------------------------

    def cluster(self, algorithm="leiden", resolution=1.0, random_state=None,
                seed_communities=None, changed_keys=()):
        """Partition the problems into clusters of similar ER tasks.

        Returns a list of sets of problem keys. Isolated vertices come
        back as singleton clusters.

        Parameters
        ----------
        seed_communities : list of sets, optional
            Warm start (Leiden only): the previous partition to update
            incrementally via
            :func:`~repro.graphcluster.incremental_leiden` instead of
            reclustering from scratch. Keys no longer in the graph are
            ignored; new keys start as singletons.
        changed_keys : iterable, optional
            Keys inserted (or whose edges changed) since
            ``seed_communities`` was computed; only they and their
            neighbours are re-examined.
        """
        if algorithm not in CLUSTERING_ALGORITHMS:
            raise KeyError(
                f"unknown clustering algorithm {algorithm!r}; choose from "
                f"{sorted(CLUSTERING_ALGORITHMS)}"
            )
        if len(self._problems) == 0:
            return []
        if seed_communities is not None:
            if algorithm != "leiden":
                raise ValueError(
                    "warm-started clustering (seed_communities) is only "
                    "supported with algorithm='leiden'"
                )
            communities = incremental_leiden(
                self.graph, seed_communities, changed_keys,
                resolution=resolution, random_state=random_state,
            )
            return [set(community) for community in communities]
        func = CLUSTERING_ALGORITHMS[algorithm]
        if algorithm == "girvan_newman":
            communities = func(self.graph)
        elif algorithm == "leiden":
            communities = func(
                self.graph, resolution=resolution, random_state=random_state
            )
        elif algorithm == "louvain":
            communities = func(
                self.graph, resolution=resolution, random_state=random_state
            )
        else:
            communities = func(self.graph, random_state=random_state)
        return [set(community) for community in communities]
