"""The MoRER facade: fit a model repository, solve new ER problems.

Workflow (Fig. 3): similarity distribution analysis over the initial
problems -> ER problem graph -> Leiden clustering -> per-cluster budget
-> active-learning training-data selection -> one classifier per
cluster, stored in a :class:`~repro.core.repository.ModelRepository`.
New problems are served by :math:`sel_{base}` (repository search) or
:math:`sel_{cov}` (graph integration + coverage-driven retraining,
which invalidates both the retrained entry's cached signature and its
sketch row).

One size rule
-------------
``config.index_threshold`` is the only switch between the paper's
exact paths and the serving ones, and each structure applies it to its
own observed size. A repository of fewer entries scores every entry; a
larger one reranks its sketch-nearest entries exactly
(:mod:`repro.core.sketch_index`). A graph of fewer problems compares an
insertion with every vertex and reclusters with a full run; a larger
one compares it with its sketch-nearest vertices and reclusters by
row replay (below). Paper-scale reproductions stay exact wherever
their structures stay small.

``sel_cov`` as a *session* over graph rows
------------------------------------------
Probes arrive as a stream and :math:`G_P` only grows, so the warm state
is one :class:`~repro.core.partition_state.PartitionState` (partition,
delta-tracked per-community :math:`(L_c, K_c)` modularity aggregates,
row cursor) over :class:`~repro.core.graph.ERProblemGraph`'s rows.
Once a Leiden graph holds ``config.index_threshold`` problems, a solve
*replays* the rows past the cursor: inserted probes join the seed as
singletons with their edges to earlier rows, and one bounded local
move re-examines the perturbed region — regardless of whether one probe
or a whole :meth:`MoRER.solve_batch` batch landed since. The
degradation check reads the aggregates (O(moved region)); no full
:func:`~repro.graphcluster.modularity` pass appears on the warm path.
A full Leiden run happens only on a modularity drop beyond
:data:`RECLUSTER_TOLERANCE`, every :data:`FULL_RECLUSTER_EVERY`
insertions, or after Eq. 14 retraining.

Batching and persistence
------------------------
:meth:`MoRER.solve_batch` integrates a probe batch with one call to
the graph's insertion body (the one :meth:`MoRER.solve` runs for a
single probe) and one recluster, then decides reuse vs
retrain per probe; integration time is attributed per-probe through
``SolveResult.overhead_seconds`` (never double-counted against
:meth:`overhead_seconds`). :meth:`MoRER.save` / :meth:`MoRER.load`
persist the whole session — config, repository, graph (problems,
edges in creation order, the pair-cache extras, sketch matrix),
partition state and RNG stream — versioned under
:data:`PERSISTENCE_FORMAT`, so a warm restart answers its first
``sel_cov`` probe with zero recomputation and decides exactly as the
never-saved instance would (see ``tests/test_morer_persistence.py``
for the counter-backed guarantee).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..baselines.bootstrap import BootstrapActiveLearner
from ..graphcluster import communities_from_partition, partition_from_communities
from ..ml.utils import check_random_state
from .budget import distribute_budget
from .config import MoRERConfig, make_classifier
from .distribution import make_distribution_test
from .graph import ERProblemGraph
from .partition_state import PartitionState
from .repository import ModelRepository
from .selection import SolveResult, decide_cov, pool_problems, select_base

__all__ = [
    "MoRER", "CountingOracle", "NotFittedError", "PERSISTENCE_FORMAT",
    "UnsupportedFormatError",
]

#: On-disk layout version written by :meth:`MoRER.save`. Bump on any
#: incompatible change to ``morer.json`` / ``graph.npz`` / the
#: repository directory; :meth:`MoRER.load` refuses unknown versions
#: loudly rather than deserialising garbage. Format 2 stores each
#: graph fact once (see :meth:`ERProblemGraph.export_state`); format 3
#: drops the index knobs from the config, the graph meta and the
#: repository manifest, keeping ``index_threshold`` alone; format 4
#: drops the mutation journal and its version from the graph meta (the
#: graph only grows, so its rows are the log); format 5 writes each
#: random forest as one ensemble (its trees' node arrays concatenated),
#: ``graph.npz``'s edges as per-row counts plus each edge's earlier row
#: (no per-edge ``edge_rows``) and a compact repository manifest;
#: format 6 drops the process-local ``timings`` from ``morer.json`` and
#: lists each distinct ``feature_names`` list once in the graph meta,
#: so saving the same fitted state twice writes the same bytes; format
#: 7 drops the five serving settings and the two warm-recluster knobs
#: from the config in ``morer.json`` and the repository manifest (they
#: are :class:`~repro.service.MoRERService` /
#: :class:`~repro.service.ServiceHTTPServer` arguments and this
#: module's constants now). A store written in an older format must be
#: refitted.
PERSISTENCE_FORMAT = 7

#: Modularity head-room of a warm recluster: a replayed partition whose
#: delta-tracked modularity falls more than this below the last full
#: run's is dropped for a full Leiden run.
RECLUSTER_TOLERANCE = 0.05

#: Warm insertions after which a full recluster is forced: the drift
#: bound that modularity alone cannot provide.
FULL_RECLUSTER_EVERY = 50


class UnsupportedFormatError(ValueError):
    """A :meth:`MoRER.save` directory, or a WAL segment, in a format
    this build cannot read.

    Unlike a damaged snapshot (a torn file raises :class:`ValueError`
    or :class:`OSError`), the directory is intact, so crash recovery
    stops on it instead of falling back to an older generation or
    bootstrapping over it (:func:`repro.durability.load_snapshot`).
    Unlike a torn WAL tail, a segment of another format holds acked
    records, so recovery stops on it instead of replaying past it and
    :class:`~repro.durability.WriteAheadLog` refuses to append to it.
    """


class NotFittedError(RuntimeError):
    """Solve/save was called before :meth:`MoRER.fit` (or ``load``).

    Subclasses :class:`RuntimeError` so pre-existing ``except
    RuntimeError`` callers keep working; the service layer maps it to
    :class:`repro.service.NotFitted` at the typed boundary.
    """


class CountingOracle:
    """Labelling oracle that reads ground truth and counts every query."""

    def __init__(self, labels):
        self._labels = np.asarray(labels)
        self.count = 0

    def __call__(self, indices):
        indices = [int(i) for i in indices]
        self.count += len(indices)
        return self._labels[indices]


class MoRER:
    """Model repositories for entity resolution.

    Parameters
    ----------
    config : MoRERConfig, optional
        Full configuration; keyword overrides are applied on top, so
        ``MoRER(b_total=2000)`` works without building a config first.

    Examples
    --------
    >>> morer = MoRER(b_total=500, random_state=0)
    >>> morer.fit(initial_problems)            # doctest: +SKIP
    >>> result = morer.solve(new_problem)      # doctest: +SKIP
    >>> result.predictions                     # doctest: +SKIP
    """

    def __init__(self, config=None, **overrides):
        if config is None:
            config = MoRERConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.test = make_distribution_test(
            config.distribution_test, **config.test_params
        )
        self._rng = check_random_state(config.random_state)
        self.problem_graph = None
        self.repository = None
        self.clusters_ = None
        self.trained_keys = set()
        # Incremental sel_cov state: one PartitionState carrying the
        # warm partition, its delta-tracked modularity aggregates and
        # the row cursor it reflects. None = the next solve reclusters
        # fully.
        self._partition = None
        #: Runtime instrumentation: how often the solve path ran a full
        #: Leiden pass vs accepted a row replay, how many O(edges)
        #: quality passes were paid (aggregate rebuilds at full runs —
        #: the warm path pays none), and how many batches were served.
        self.counters = {
            "full_reclusters": 0,
            "warm_reclusters": 0,
            "full_quality_passes": 0,
            "batch_solves": 0,
        }
        self.timings = {
            "analysis": 0.0,      # pairwise distribution tests
            "clustering": 0.0,    # Leiden runs
            "al_selection": 0.0,  # training-data selection
            "training": 0.0,      # classifier fits
            "search": 0.0,        # repository search (sel_base)
        }
        # float += is a read-modify-write: concurrent sel_base solves
        # (repro.service shares them on a read lock) must not lose each
        # other's updates, so every accumulation goes through
        # _add_timing under this lock.
        self._timing_lock = threading.Lock()

    # -- construction (Fig. 3 steps 1-3) -------------------------------------

    def fit(self, initial_problems):
        """Initialise the repository from labelled problems (the P_I set).

        Every problem must carry labels; AL queries them through a
        counting oracle so the spent budget is tracked faithfully.
        """
        initial_problems = list(initial_problems)
        if not initial_problems:
            raise ValueError("need at least one initial ER problem")
        for problem in initial_problems:
            if problem.labels is None:
                raise ValueError(
                    f"initial problem {problem.key} has no labels; MoRER "
                    "initialisation needs a labelling oracle"
                )

        started = time.perf_counter()
        self.problem_graph = ERProblemGraph.build(
            initial_problems, self.test, self.config.min_similarity,
            index_threshold=self.config.index_threshold,
        )
        self._add_timing("analysis", time.perf_counter() - started)
        self._invalidate_cluster_cache()

        clusters = self._timed_cluster()

        graph = self.problem_graph
        problems_by_key = graph.problems()
        if self.config.model_generation == "al":
            # Singleton merging (Eq. 4) compares vertices of G_P, whose
            # pair similarities the graph build already memoized.
            clusters, budgets = distribute_budget(
                clusters,
                problems_by_key,
                self.config.b_total,
                self.config.b_min,
                similarity=lambda a, b: graph.pair_similarity(a.key, b.key),
                policy=self.config.budget_policy,
            )
        else:
            budgets = [None] * len(clusters)
        self.clusters_ = clusters

        self.repository = ModelRepository(self.test, self.config)
        record_cluster_counts = self._record_cluster_counts(clusters)
        for cluster, budget in zip(clusters, budgets):
            problems = [problems_by_key[key] for key in cluster]
            self._build_cluster_model(
                cluster, problems, budget, record_cluster_counts,
                len(clusters),
            )
            self.trained_keys |= set(cluster)
        return self

    def _build_cluster_model(self, cluster, problems, budget,
                             record_cluster_counts, n_clusters):
        features, labels, pair_ids = pool_problems(problems)
        oracle = CountingOracle(labels)
        if budget is None:  # supervised: use everything
            train_idx = np.arange(len(labels))
            train_labels = oracle(train_idx)
        else:
            learner = self._make_learner()
            started = time.perf_counter()
            train_idx, train_labels = learner.select(
                features, oracle, budget,
                pair_ids=pair_ids,
                record_cluster_counts=record_cluster_counts,
                n_clusters=n_clusters,
            )
            self._add_timing("al_selection", time.perf_counter() - started)
        model = make_classifier(
            self.config.classifier,
            int(self._rng.integers(0, 2**31 - 1)),
        )
        started = time.perf_counter()
        model.fit(features[train_idx], train_labels)
        self._add_timing("training", time.perf_counter() - started)
        return self.repository.add_entry(
            cluster, model, features[train_idx], train_labels,
            labels_spent=oracle.count, trained_keys=cluster,
        )

    def _make_learner(self):
        seed = int(self._rng.integers(0, 2**31 - 1))
        if self.config.al_method == "almser":
            from ..baselines.almser import AlmserActiveLearner

            return AlmserActiveLearner(
                batch_size=self.config.batch_size, random_state=seed
            )
        return BootstrapActiveLearner(
            k=self.config.committee_k,
            batch_size=self.config.batch_size,
            use_record_score=self.config.use_record_score,
            random_state=seed,
        )

    def _record_cluster_counts(self, clusters):
        """``record id -> number of clusters it occurs in`` (Eq. 12).

        Each problem's record set is built once and reused across
        clusters (a problem's ``pair_ids`` are walked exactly one time).
        """
        counts = {}
        records_by_key = {}
        problems_by_key = self.problem_graph.problems()
        for key, problem in problems_by_key.items():
            if problem.pair_ids is None:
                records_by_key[key] = frozenset()
                continue
            records = set()
            for record_a, record_b in problem.pair_ids:
                records.add(record_a)
                records.add(record_b)
            records_by_key[key] = records
        for cluster in clusters:
            records = set()
            for key in cluster:
                records |= records_by_key[key]
            for record in records:
                counts[record] = counts.get(record, 0) + 1
        return counts

    # -- solving (Fig. 3 steps 4-5) --------------------------------------------

    def solve(self, problem, oracle=None, strategy=None):
        """Classify an unsolved ER problem with a repository model.

        Parameters
        ----------
        problem : ERProblem
            The problem to solve. Labels, if present, are *only* used
            as the labelling oracle for ``sel_cov`` retraining — never
            for prediction.
        oracle : callable, optional
            Custom labelling oracle for retraining; defaults to the
            problem's own labels.
        strategy : {"base", "cov"}, optional
            Overrides ``config.selection`` per call.

        Returns
        -------
        SolveResult
        """
        if self.repository is None:
            raise NotFittedError("MoRER is not fitted; call fit() first")
        strategy = strategy or self.config.selection
        if strategy == "base":
            started = time.perf_counter()
            result = select_base(self, problem)
            elapsed = time.perf_counter() - started
            self._add_timing("search", elapsed)
            result.overhead_seconds = elapsed
            return result
        if strategy == "cov":
            return self._solve_cov([problem], oracle)[0]
        raise ValueError(f"unknown selection strategy {strategy!r}")

    def solve_batch(self, problems, oracle=None, strategy=None):
        """Solve a stream of problems with one integration + recluster.

        The batched ``sel_cov`` entry point, running the ``sel_cov``
        body a single :meth:`solve` runs with one probe
        (:meth:`_solve_cov`): all absent probes are inserted in one
        call to the graph's insertion body
        (:meth:`ERProblemGraph.add_problems`), the partition is updated
        by one row replay (one bounded local move over every
        inserted vertex), and then each probe gets its reuse/retrain
        decision in order against the shared clustering — so the
        per-solve integration overhead is amortised across the batch.
        If a probe's decision retrains a model (which invalidates the
        partition), the next probe reclusters first, mirroring the
        sequential coherence rule.

        Timing accounting stays consistent with :meth:`solve`: the
        shared integration/recluster time lands once in
        :attr:`timings` (so :meth:`overhead_seconds` never
        double-counts) and is attributed per-probe through each
        result's ``overhead_seconds`` (an equal share of the batch
        cost, plus any recluster that probe itself forced).

        Parameters
        ----------
        problems : iterable of ERProblem
            The probe batch; probes already in the graph are decided
            against the refreshed clustering without re-insertion.
        oracle, strategy
            As in :meth:`solve`. ``strategy="base"`` has no batch
            economics and simply loops :meth:`solve`.

        Returns
        -------
        list of SolveResult
            One per probe, in input order.
        """
        problems = list(problems)
        if self.repository is None:
            raise NotFittedError("MoRER is not fitted; call fit() first")
        if not problems:
            return []
        strategy = strategy or self.config.selection
        if strategy == "base":
            return [self.solve(p, strategy="base") for p in problems]
        if strategy != "cov":
            raise ValueError(f"unknown selection strategy {strategy!r}")
        results = self._solve_cov(problems, oracle)
        self.counters["batch_solves"] += 1
        return results

    def _solve_cov(self, problems, oracle):
        """The one :math:`sel_{cov}` body behind :meth:`solve` and
        :meth:`solve_batch`: insert the absent probes, recluster once,
        then :func:`~repro.core.selection.decide_cov` per probe in
        order. ``problems`` is a non-empty list."""
        before = self.overhead_seconds()
        seen = set()
        fresh = []
        for problem in problems:
            key = problem.key
            if key not in self.problem_graph and key not in seen:
                fresh.append(problem)
                seen.add(key)
        if fresh:
            self._timed_add_problems(fresh)
        clusters = self._timed_cluster()
        shared = (self.overhead_seconds() - before) / len(problems)
        results = []
        last = self.overhead_seconds()
        for problem in problems:
            if results and results[-1].retrained:
                # The previous probe's Eq. 14 retrain invalidated the
                # warm partition: the remaining probes decide against a
                # fresh clustering, mirroring the sequential coherence
                # rule. (A new-model probe changes only the repository,
                # not the graph, so no recluster is owed.) The
                # recluster is charged to the probe that forced it, not
                # the one that merely comes next.
                clusters = self._timed_cluster()
                now = self.overhead_seconds()
                results[-1].overhead_seconds += now - last
                last = now
            result = decide_cov(self, problem, oracle, clusters)
            now = self.overhead_seconds()
            result.overhead_seconds = shared + (now - last)
            last = now
            results.append(result)
        return results

    def predict(self, problem, **kwargs):
        """Shortcut for ``solve(problem).predictions``."""
        return self.solve(problem, **kwargs).predictions

    # -- sel_cov internals (called from selection.py) ----------------------------

    def _add_timing(self, key, seconds):
        """Thread-safe accumulation into :attr:`timings`."""
        with self._timing_lock:
            self.timings[key] += seconds

    def _timed_add_problems(self, problems):
        started = time.perf_counter()
        self.problem_graph.add_problems(problems)
        self._add_timing("analysis", time.perf_counter() - started)

    def _invalidate_cluster_cache(self):
        """Forget the warm partition; the next solve reclusters fully."""
        self._partition = None

    @property
    def _inserts_since_full(self):
        """Insertions absorbed by the current warm streak (0 when no
        partition state is live) — benchmark/diagnostic accessor."""
        return 0 if self._partition is None else (
            self._partition.inserts_since_full
        )

    def _track_cluster_cache(self):
        """Whether full runs leave a partition state to replay into
        (Leiden only)."""
        return self.config.clustering_algorithm == "leiden"

    def _incremental_clustering_active(self):
        """Whether the *next* recluster may warm-start by replaying the
        graph rows past the partition state's cursor."""
        if not self._track_cluster_cache():
            return False
        if self._partition is None:
            return False
        if self._partition.inserts_since_full >= FULL_RECLUSTER_EVERY:
            return False
        return len(self.problem_graph) >= self.config.index_threshold

    def _timed_cluster(self):
        started = time.perf_counter()
        graph = self.problem_graph
        config = self.config
        seed = int(self._rng.integers(0, 2**31 - 1))
        clusters = None
        if self._incremental_clustering_active():
            outcome = self._partition.replay(
                graph, config.resolution, seed
            )
            if outcome.quality >= (
                self._partition.reference_modularity - RECLUSTER_TOLERANCE
            ):
                # Repeat solves of already-integrated problems replay
                # no row: nothing changed, so the warm streak does not
                # consume the periodic full-recluster budget.
                self._partition.accept(outcome)
                clusters = communities_from_partition(outcome.partition)
                self.counters["warm_reclusters"] += 1
        if clusters is None:
            clusters = graph.cluster(
                config.clustering_algorithm, config.resolution, seed
            )
            self.counters["full_reclusters"] += 1
            if self._track_cluster_cache():
                # In graph row order, not in the order of the community
                # sets: the stored partition and the strengths summed
                # in its order must not follow the hash seed.
                labels = partition_from_communities(clusters)
                self._partition = PartitionState.from_full_run(
                    graph, {key: labels[key] for key in graph.csr().nodes},
                    config.resolution,
                )
                self.counters["full_quality_passes"] += 1
        self._add_timing("clustering", time.perf_counter() - started)
        self.clusters_ = clusters
        return clusters

    def _train_new_cluster_model(self, cluster, problem, oracle):
        """Fresh model for a cluster made entirely of unseen problems."""
        problems = []
        for key in cluster:
            stored = self.problem_graph.problem(key)
            problems.append(stored)
        features, labels, pair_ids = pool_problems(problems)
        if labels is None and oracle is None:
            raise ValueError(
                f"cluster {sorted(cluster)} has no labels and no oracle "
                "was provided; cannot train a new model"
            )
        counting = CountingOracle(labels) if labels is not None else oracle
        total_initial = sum(
            p.n_pairs for p in self.problem_graph.problems().values()
        )
        budget = max(
            self.config.b_min,
            int(round(self.config.b_total * len(features) / max(total_initial, 1))),
        )
        budget = min(budget, len(features))
        learner = self._make_learner()
        started = time.perf_counter()
        train_idx, train_labels = learner.select(
            features, counting, budget, pair_ids=pair_ids,
            record_cluster_counts={}, n_clusters=max(len(self.clusters_), 1),
        )
        self._add_timing("al_selection", time.perf_counter() - started)
        model = make_classifier(
            self.config.classifier, int(self._rng.integers(0, 2**31 - 1))
        )
        started = time.perf_counter()
        model.fit(features[train_idx], train_labels)
        self._add_timing("training", time.perf_counter() - started)
        spent = counting.count if isinstance(counting, CountingOracle) else 0
        cluster_id = self.repository.add_entry(
            cluster, model, features[train_idx], train_labels,
            labels_spent=spent, trained_keys=cluster,
        )
        self.trained_keys |= set(cluster)
        return SolveResult(
            predictions=np.empty(0),
            cluster_id=cluster_id,
            new_model=True,
            labels_spent=spent,
            coverage=1.0,
        )

    def _update_entry(self, entry, cluster, untrained, coverage, oracle):
        """Eq. 14 retraining of an existing entry; returns labels spent."""
        problems = [self.problem_graph.problem(key) for key in untrained]
        features, labels, pair_ids = pool_problems(problems)
        if labels is None and oracle is None:
            return 0
        counting = CountingOracle(labels) if labels is not None else oracle
        # Eq. 14 algebraically reduces to cov(C) * |T ∩ C_prev| (see
        # DESIGN.md): the budget is proportional to how much of the new
        # cluster the previous training data fails to cover.
        budget = int(round(coverage * len(entry.training_labels)))
        budget = min(budget, len(features))
        if budget < 2:
            return 0
        learner = self._make_learner()
        started = time.perf_counter()
        train_idx, train_labels = learner.select(
            features, counting, budget, pair_ids=pair_ids,
            record_cluster_counts={},
            n_clusters=max(len(self.clusters_ or ()), 1),
        )
        self._add_timing("al_selection", time.perf_counter() - started)
        new_features = np.vstack(
            [entry.training_features, features[train_idx]]
        )
        new_labels = np.concatenate([entry.training_labels, train_labels])
        model = make_classifier(
            self.config.classifier, int(self._rng.integers(0, 2**31 - 1))
        )
        started = time.perf_counter()
        model.fit(new_features, new_labels)
        self._add_timing("training", time.perf_counter() - started)
        spent = counting.count if isinstance(counting, CountingOracle) else 0
        entry.model = model
        entry.training_features = new_features
        entry.training_labels = new_labels
        entry.labels_spent += spent
        entry.trained_keys |= set(untrained)
        self.trained_keys |= set(untrained)
        # The entry's representative changed — its cached search
        # signature is stale, and the cached partition no longer
        # reflects the repository state it was computed against.
        self.repository.invalidate_entry_cache(entry.cluster_id)
        self._invalidate_cluster_cache()
        return spent

    # -- persistence --------------------------------------------------------------

    def save(self, path, extras=None):
        """Persist the whole solve session to directory ``path``.

        Layout (``format`` :data:`PERSISTENCE_FORMAT`):

        * ``repository/`` — the :meth:`ModelRepository.save` directory
          (manifest, one JSON file per model — a random forest as one
          ensemble — training arrays, search sketch matrix);
        * ``graph.npz`` (uncompressed: the features and edge weights
          that make up most of it barely deflate) — the problems'
          concatenated features and labels, the edges in creation
          order (per-row counts, each edge's earlier row and weight),
          the memoized pairs no edge carries and the insertion-prefilter
          sketch matrix, each fact once
          (:meth:`ERProblemGraph.export_state`);
        * ``morer.json`` — config, graph metadata, the
          :class:`PartitionState` (with its row cursor), trained keys,
          clusters and the RNG stream state. :attr:`timings`, like
          :attr:`counters`, is process-local instrumentation and is not
          stored: a loaded instance counts from zero. Saving the same
          fitted state twice writes the same bytes.

        The write is **atomic and crash-safe**: everything lands in a
        temp sibling that is fsynced and renamed into place
        (:class:`~repro.durability.atomic_directory`), the replaced
        snapshot surviving as ``<path>.prev`` — a crash at any point
        leaves a complete generation loadable (see
        :func:`repro.durability.load_snapshot`).

        ``extras`` maps extra file names to text written inside the
        snapshot *before* the atomic swap — the service uses it to
        embed the WAL position (``durability.json``) so recovery knows
        exactly which log records the snapshot already absorbed.

        :meth:`load` restores all of it, so the first post-restart
        ``sel_cov`` solve replays the rows past the cursor instead of
        rebuilding signatures, sketches or the partition, and draws the
        same seeds the pre-save instance would have.
        """
        if self.repository is None:
            raise NotFittedError("MoRER is not fitted; call fit() first")
        from ..durability.atomic import atomic_directory
        from ..durability.faults import kill_point

        path = Path(path)
        with atomic_directory(path) as tmp:
            self.repository.save(tmp / "repository", atomic=False)
            kill_point("snapshot.mid_write")
            graph_meta, graph_arrays = self.problem_graph.export_state()
            np.savez(tmp / "graph.npz", **graph_arrays)
            state = {
                "format": PERSISTENCE_FORMAT,
                "config": self.config.to_dict(),
                "graph": graph_meta,
                "trained_keys": sorted(
                    list(key) for key in self.trained_keys
                ),
                "clusters": None if self.clusters_ is None else [
                    sorted(list(key) for key in cluster)
                    for cluster in self.clusters_
                ],
                "partition": (
                    None if self._partition is None
                    else self._partition.to_dict()
                ),
                "rng_state": self._rng.bit_generator.state,
            }
            (tmp / "morer.json").write_text(json.dumps(state))
            for name, text in (extras or {}).items():
                (tmp / name).write_text(text)

    @classmethod
    def load(cls, path):
        """Rebuild a fitted MoRER from a :meth:`save` directory.

        Raises :class:`UnsupportedFormatError` when the directory was
        written in another :data:`PERSISTENCE_FORMAT`.
        """
        path = Path(path)
        state = json.loads((path / "morer.json").read_text())
        if state.get("format") != PERSISTENCE_FORMAT:
            raise UnsupportedFormatError(
                f"unsupported MoRER save format {state.get('format')!r} "
                f"in {path}; this build reads format "
                f"{PERSISTENCE_FORMAT} (refit stores written in an "
                "older format)"
            )
        morer = cls(MoRERConfig.from_dict(state["config"]))
        morer.repository = ModelRepository.load(path / "repository")
        with np.load(path / "graph.npz", allow_pickle=False) as arrays:
            morer.problem_graph = ERProblemGraph.restore_state(
                state["graph"], arrays, morer.test
            )
        morer.trained_keys = {
            tuple(key) for key in state["trained_keys"]
        }
        if state["clusters"] is not None:
            morer.clusters_ = [
                {tuple(key) for key in cluster}
                for cluster in state["clusters"]
            ]
        if state["partition"] is not None:
            morer._partition = PartitionState.from_dict(
                state["partition"]
            )
        morer._rng.bit_generator.state = state["rng_state"]
        return morer

    # -- reporting ----------------------------------------------------------------

    def total_labels_spent(self):
        """All oracle queries so far (fit + retraining)."""
        return self.repository.total_labels_spent() if self.repository else 0

    def overhead_seconds(self):
        """Time spent on analysis + clustering + search (Fig. 5 overlay)."""
        with self._timing_lock:
            return (
                self.timings["analysis"]
                + self.timings["clustering"]
                + self.timings["search"]
            )
