"""The ER problem similarity graph :math:`G_P` (§4.3).

Vertices are ER problems (keyed by source pair), edges carry the
aggregated distribution similarity ``sim_p``. The graph is clustered
with Leiden by default and is extendable: new unsolved problems are
attached by comparing them against existing vertices (the ``sel_cov``
strategy of §4.5 reclusters after insertion). Like the paper's
integration step, the graph only ever grows: a problem, once inserted,
stays.

Pairwise analysis is the O(P²·F) hot loop of construction, so the
graph keeps one :class:`~repro.core.signatures.ProblemSignature` per
row (sorted columns, self-CDFs, histograms, stds computed once), built
when the row is inserted or restored, and evaluates edges with the
tests' vectorized signature kernels. No pair similarity is computed
twice: every edge carries its pair's value, and the pair cache keeps
the evaluated pairs no edge carries (pairs at or below
``min_similarity``, and pairs :meth:`pair_similarity` computed on
demand), so repeated reclustering and budgeting never repeat a
comparison.

Array store
-----------
:math:`G_P` lives in arrays, not in a dict graph. Vertices are rows in
insertion order. Edges are kept in *creation order* — each new vertex's
edges to earlier vertices, in candidate order — as ``(row, earlier
row, weight)`` arrays; a snapshot stores the same edges, with each
row's edge count in place of the per-edge row. Node strengths and the
total weight are accumulated edge by edge in that order, the float
sequence a dict ``Graph.add_edge`` would run.
:meth:`ERProblemGraph.csr` derives a
:class:`~repro.graphcluster.CSRGraph` once per mutation, listing each
vertex's neighbours in creation order of its edges; Leiden, Louvain and
the partition state's local move and aggregates run on it.
:meth:`ERProblemGraph.to_graph` gives an exact dict copy for the
dict-only algorithms (label propagation, Girvan–Newman) and the
cluster-stability scores.

One insertion body
------------------
:meth:`build`, :meth:`add_problems` and :meth:`add_problem` all run
the private :meth:`ERProblemGraph._insert` over a batch (a fit set, a
``solve_batch`` tick, one probe). Each member is compared with its
candidates — the existing vertices, then the earlier batch members —
and its edges follow that order. The batch's own pairs come from the
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

Rows as the mutation log
------------------------
Since vertices are only appended, :attr:`version` is the row count and
the rows past a position are everything that changed since. A consumer
caching a partition (MoRER's
:class:`~repro.core.partition_state.PartitionState`) remembers the row
count it last synced at (its *cursor*) and later *replays* rows
``cursor..n`` from :meth:`csr`: each row's CSR neighbour list starts
with its edges to earlier rows, in the candidate order it was inserted
with, before the edges later rows brought.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphcluster import CLUSTERING_ALGORITHMS, CSRGraph
from .config import DEFAULT_INDEX_THRESHOLD, check_index_threshold
from .distribution import make_distribution_test
from .problem import ERProblem
from .signatures import ProblemSignature
from .sketch_index import SketchIndex

__all__ = ["ERProblemGraph"]

_NO_EDGES = (
    np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0),
)


def _pair_key(key_a, key_b):
    """Order-independent cache key for a pair of problem keys."""
    return (key_a, key_b) if key_a <= key_b else (key_b, key_a)


class ERProblemGraph:
    """Similarity graph over ER problems.

    Problems enter through :meth:`build` (the fit set),
    :meth:`add_problems` or :meth:`add_problem`. All three run one
    insertion body: each new problem is compared once with each of its
    candidates, in a fixed order (existing vertices, then earlier batch
    members). Problems are never removed.

    Parameters
    ----------
    test : distribution test or str
        A distribution test with the signature kernels
        (``signature_similarity`` and ``signature_similarity_many``, plus
        ``signature_similarity_matrix`` when it is order-symmetric; see
        :mod:`repro.core.distribution`) or a Table 3 short name
        (``"ks"``, ``"wd"``, ``"psi"``, ``"c2st"``).
    min_similarity : float
        Edges below this weight are omitted; 0.0 keeps every positive
        similarity (the default — Leiden handles dense graphs fine at
        this scale).
    index_threshold : int
        Vertex count from which an insertion is compared only with its
        ``max(64, 4 * sqrt(vertices))`` sketch-nearest vertices; below
        it, with every vertex (the exact §4.5 behaviour).
    """

    def __init__(self, test="ks", min_similarity=0.0,
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
        # The store: vertex rows in insertion order, each with its
        # signature, edges in creation order as (row, earlier row,
        # weight) arrays (newly inserted edges wait in _pending_edges
        # until read), and the strengths and total weight accumulated
        # edge by edge.
        self._problems = {}
        self._keys = []
        self._rows = {}
        self._signatures = []
        self._edge_store = _NO_EDGES
        self._pending_edges = []
        self._strength = np.zeros(0)
        self._total = 0.0
        self._csr = None
        #: Runtime instrumentation (never persisted): how many pairwise
        #: test evaluations ran and how many sketch rows were derived
        #: from signatures — the persistence suite asserts a restored
        #: graph's first solve recomputes nothing it saved.
        self.stats = {"pair_evals": 0, "sketch_rows_built": 0}
        # Memoized pairs no edge carries: pair -> value, in the order
        # of first evaluation, which a snapshot lists them in.
        self._pair_cache = {}
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
        its matrix row.
        """
        instance = cls(test, min_similarity, **kwargs)
        instance._insert(problems)
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
        compared with each other exactly, and the batch lands as the
        equivalent insert sequence: one row per member, in batch order.
        """
        self._insert(problems)

    def _insert(self, problems):
        """The one body that adds problems to the graph.

        Each member is compared with its *candidates*, in this order:
        the existing vertices (all of them, or the sketch-nearest ones
        once the prefilter is active), then the earlier batch members.
        Its edges follow that order. The pairs inside the batch come
        from the test's ``signature_similarity_matrix`` when
        :meth:`_batch_matrix` provides one; every other pair goes
        through the one-vs-many ``signature_similarity_many`` kernel in
        ``sim_p(new, other)`` orientation, reading each candidate's
        signature from its row. A new key was never in the
        graph, so none of its pairs is cached yet. Every member is
        checked before the first mutation, so a rejected batch leaves
        the graph untouched.
        """
        problems = list(problems)
        keys = self._check_members(problems)
        prefilter = self._prefilter_active()
        if prefilter:
            self._sync_sketch_index()
        n_candidates = self._candidate_width() if prefilter else 0
        existing = list(self._keys)
        signatures = [
            ProblemSignature(problem.features) for problem in problems
        ]
        matrix = self._batch_matrix(signatures)
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
            rest = len(candidates)
            if matrix is not None:
                values[len(outer):] = matrix[i, :i]
                rest = len(outer)
            if rest:
                values[:rest] = self.test.signature_similarity_many(
                    signature, [
                        self._signatures[other]
                        for other in candidate_rows[:rest].tolist()
                    ],
                )
                self.stats["pair_evals"] += rest
            linked = values > self.min_similarity
            if self._cache_pairs:
                for j in np.flatnonzero(~linked).tolist():
                    self._pair_cache[_pair_key(key, candidates[j])] = float(
                        values[j]
                    )
            weights = values[linked]
            neighbours = candidate_rows[linked]
            self._strength[neighbours] += weights
            self._strength = np.append(
                self._strength, np.cumsum(weights)[-1] if weights.size else 0.0
            )
            self._total = float(np.cumsum(np.r_[self._total, weights])[-1])
            self._pending_edges.append((
                np.full(weights.size, row, dtype=np.intp), neighbours,
                weights,
            ))
            self._csr = None
            self._keys.append(key)
            self._rows[key] = row
            self._problems[key] = problem
            self._signatures.append(signature)
            self._index_pending[key] = None

    def _check_members(self, problems):
        """The keys of a batch about to be inserted, in batch order;
        raises ``ValueError`` on a key already in the graph or repeated
        in the batch, and on a feature count that differs from the
        graph's or from another member's."""
        keys = {}
        n_features = next(
            (problem.n_features for problem in self._problems.values()), None
        )
        for problem in problems:
            key = problem.key
            if key in self._problems or key in keys:
                raise ValueError(f"ER problem {key} already in the graph")
            keys[key] = None
            if n_features is None:
                n_features = problem.n_features
            elif problem.n_features != n_features:
                raise ValueError(
                    "ER problems must share the feature space "
                    f"({problem.n_features} vs {n_features} features)"
                )
        return list(keys)

    def _batch_matrix(self, signatures):
        """The batch's ``sim_p`` matrix from the test's all-pairs
        ``signature_similarity_matrix``, or ``None`` when its inner
        pairs go through the one-vs-many kernel instead: for a single
        member, and for order-asymmetric tests (C2ST has no matrix
        kernel; one would pay both orientations)."""
        n = len(signatures)
        if n < 2 or not self._cache_pairs:
            return None
        self.stats["pair_evals"] += n * (n - 1) // 2
        return self.test.signature_similarity_matrix(signatures)

    def _edges(self):
        """``(rows, earlier rows, weights)`` of every edge, in creation
        order."""
        if self._pending_edges:
            self._edge_store = tuple(
                np.concatenate(parts)
                for parts in zip(self._edge_store, *self._pending_edges)
            )
            self._pending_edges = []
        return self._edge_store

    @property
    def version(self):
        """Mutation count: the number of rows, since the graph only
        grows."""
        return len(self._keys)

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
            self._sketch_index.add(key, self._signatures[self._rows[key]])
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
                return cached
            weight = self._edge_weight(key_a, key_b)
            if weight is not None:
                return weight
        similarity = self.test.signature_similarity(
            self._signatures[self._rows[key_a]],
            self._signatures[self._rows[key_b]],
        )
        if self._cache_pairs:
            self._pair_cache[_pair_key(key_a, key_b)] = similarity
        self.stats["pair_evals"] += 1
        return similarity

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

        ``meta`` is JSON-safe (problem identities, pair ids,
        settings). It lists each distinct ``feature_names`` list once,
        in first-use order, and each problem names its list by index.
        ``arrays`` holds:

        * ``features`` — every problem's rows, concatenated in vertex
          order, with ``offsets`` (problem ``i`` owns rows
          ``offsets[i]:offsets[i + 1]``);
        * ``labels`` (int8) — the labelled problems' labels,
          concatenated, with the per-problem ``labelled`` flag;
        * ``edge_counts``, ``edge_earlier`` (both int32) and
          ``edge_weights`` — the edge store in *creation order*: the
          vertices in insertion order, each with its edges to earlier
          vertices in candidate order. ``edge_counts[i]`` is how many
          edges row ``i`` brought, so each edge's new row is stored
          once per row, not once per edge; ``edge_earlier`` and
          ``edge_weights`` hold each edge's earlier row and weight;
        * ``pair_rows`` / ``pair_values`` — the pair cache: the
          evaluated pairs no edge carries (at or below
          ``min_similarity``, or computed on demand), in the order they
          were first evaluated;
        * ``sketch_order`` / ``sketch_rows`` — the insertion-prefilter
          sketch matrix, when the prefilter is in play.

        Signature statistics are not stored: :meth:`restore_state`
        gives each row a fresh signature, whose statistics the same
        code derives lazily, bit for bit, from the features.
        """
        rows = self._rows
        problems = list(self._problems.values())
        names = {}   # each distinct feature_names list -> its index
        for problem in problems:
            names.setdefault(tuple(problem.feature_names), len(names))
        meta = {
            "min_similarity": self.min_similarity,
            "index_threshold": self.index_threshold,
            "feature_names": [list(listed) for listed in names],
            "problems": [
                {
                    "source_a": problem.source_a,
                    "source_b": problem.source_b,
                    "feature_names": names[tuple(problem.feature_names)],
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
        new, old, weights = self._edges()
        arrays["edge_counts"] = np.bincount(
            new, minlength=len(self._keys)).astype(np.int32)
        arrays["edge_earlier"] = old.astype(np.int32)
        arrays["edge_weights"] = weights.copy()
        arrays["pair_rows"] = np.asarray(
            [(rows[key_a], rows[key_b]) for key_a, key_b in self._pair_cache],
            dtype=np.int32,
        ).reshape(-1, 2)
        arrays["pair_values"] = np.asarray(
            list(self._pair_cache.values()), dtype=float
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
    def restore_state(cls, meta, arrays, test):
        """Rebuild a graph from an :meth:`export_state` snapshot.

        ``test`` must be (equivalent to) the distribution test the
        snapshot was taken under. Each row gets its signature back
        without statistics — the same code the live graph ran derives
        them lazily from the restored features, bit for bit — so no
        later insertion builds a stored row's signature again. Each
        edge's new row comes back from the per-row ``edge_counts``;
        strengths and the total weight are summed edge by edge in
        creation order (an edge adds to its new row, then to its
        earlier row), which gives back the live graph's values bit for
        bit. For order-symmetric tests the stored extra pairs refill the
        pair cache in their stored order. The sketch matrix comes back
        preloaded, so the first prefiltered insertion derives no sketch
        row.
        """
        instance = cls(test, meta["min_similarity"], meta["index_threshold"])
        features = arrays["features"]
        offsets = arrays["offsets"].tolist()
        labels = arrays["labels"]
        labelled = arrays["labelled"].tolist()
        names = meta["feature_names"]
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
                names[spec["feature_names"]],
            )
            key = problem.key
            instance._rows[key] = len(keys)
            keys.append(key)
            instance._problems[key] = problem
            instance._signatures.append(ProblemSignature(problem.features))
        new = np.repeat(
            np.arange(len(keys), dtype=np.intp), arrays["edge_counts"]
        )
        old = arrays["edge_earlier"].astype(np.intp)
        weights = np.array(arrays["edge_weights"], dtype=float)
        n_edges = len(weights)
        instance._edge_store = (new, old, weights)
        instance._strength = np.bincount(
            np.stack([new, old], axis=1).reshape(-1),
            weights=np.repeat(weights, 2), minlength=len(keys),
        )
        instance._total = float(np.cumsum(weights)[-1]) if n_edges else 0.0
        if instance._cache_pairs:
            extras = zip(
                arrays["pair_rows"].tolist(), arrays["pair_values"].tolist()
            )
            for (row_a, row_b), value in extras:
                instance._pair_cache[_pair_key(keys[row_a], keys[row_b])] = (
                    value
                )
        if "sketch_rows" in arrays:
            instance._sketch_index.bulk_load(
                [keys[int(row)] for row in arrays["sketch_order"]],
                arrays["sketch_rows"],
            )
        else:
            instance._index_pending.update(dict.fromkeys(keys))
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
            new, old, weights = self._edges()
            self._csr = CSRGraph.from_edges(
                list(self._keys), new, old, weights, self._strength.copy(),
                self._total, dict(self._rows),
            )
        return self._csr

    def to_graph(self):
        """An exact dict :class:`~repro.graphcluster.Graph` copy of the
        graph — node order, adjacency order, weights, strengths and
        total weight — for the algorithms that walk adjacency dicts
        (label propagation, Girvan–Newman, the cluster-stability
        scores)."""
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
