"""Model selection strategies for new ER problems (§4.5).

* :func:`select_base` — :math:`sel_{base}`: search the repository for
  the most similar cluster representative and apply its model, assuming
  minimal domain shift.
* :math:`sel_{cov}` — :meth:`MoRER.solve` and :meth:`MoRER.solve_batch`
  (one body, :meth:`MoRER._solve_cov`): integrate the new problems into
  the ER problem graph, recluster, and retrain models whose clusters
  are no longer covered by their training data (Eqs. 13–14);
  :func:`decide_cov` is its per-probe decision half.

One size rule picks the path (``MoRERConfig.index_threshold``). Below
it both ``sel_cov`` steps are the paper's exact ones: insertion (one
body for a single probe and a batch,
:meth:`~repro.core.graph.ERProblemGraph.add_problems`) compares the
probe with every vertex, and every recluster is a full run. From a
graph of ``index_threshold`` problems on both are sublinear in graph
size: insertion compares the probe with its
``max(64, 4 * sqrt(problems))`` sketch-nearest vertices, and
reclustering replays the graph rows past the cursor of MoRER's
:class:`~repro.core.partition_state.PartitionState` (one bounded local
move over the perturbed region, delta-tracked modularity) — see
:meth:`MoRER._timed_cluster` for the replay/fallback policy.
:func:`select_base` follows the same rule on the repository's entry
count (:meth:`~repro.core.repository.ModelRepository.search`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolveResult",
    "pool_problems",
    "select_base",
    "decide_cov",
]


@dataclass
class SolveResult:
    """Outcome of solving one unsolved ER problem.

    Attributes
    ----------
    predictions : ndarray
        0/1 match predictions aligned with the problem's vectors.
    cluster_id : int
        Repository entry that served the problem.
    similarity : float
        ``sim_p`` between the problem and the chosen representative
        (``sel_base``) or ``nan`` when chosen structurally (``sel_cov``).
    new_model : bool
        A brand-new model was trained for an all-new cluster.
    retrained : bool
        An existing model was updated because coverage exceeded
        :math:`t_{cov}`.
    labels_spent : int
        Oracle labels consumed while serving this problem.
    coverage : float
        The Eq. 13 coverage ratio observed (``sel_cov`` only).
    overhead_seconds : float
        Analysis + clustering + search time attributable to this
        probe. Sequential ``solve`` charges the whole integration
        here; ``solve_batch`` charges each probe an equal share of the
        batch's shared integration/recluster cost plus whatever
        reclustering the probe itself forced — summing the batch's
        values reproduces the wall-clock overhead exactly once (the
        same seconds land once in ``MoRER.timings``).
    """

    predictions: np.ndarray
    cluster_id: int
    similarity: float = float("nan")
    new_model: bool = False
    retrained: bool = False
    labels_spent: int = 0
    coverage: float = 0.0
    overhead_seconds: float = 0.0


def pool_problems(problems):
    """Concatenate problems into one AL pool.

    Returns ``(features, labels, pair_ids)``; labels are ``None`` when
    any problem lacks them, pair ids fall back to synthetic unique ids
    when missing so graph-based AL still functions.

    The pool is in problem-key order. Callers pass the members of a
    cluster, a set whose iteration order follows the process's string
    hash seed; a replay in another process must label and train on the
    same rows in the same order.
    """
    problems = sorted(problems, key=lambda p: p.key)
    features = np.vstack([p.features for p in problems])
    labels = None
    if all(p.labels is not None for p in problems):
        labels = np.concatenate([p.labels for p in problems])
    pair_ids = []
    for index, problem in enumerate(problems):
        if problem.pair_ids is not None:
            pair_ids.extend(problem.pair_ids)
        else:
            prefix = f"{problem.source_a}|{problem.source_b}|{index}"
            pair_ids.extend(
                (f"{prefix}|a{i}", f"{prefix}|b{i}")
                for i in range(problem.n_pairs)
            )
    return features, labels, pair_ids


def select_base(morer, problem):
    """Apply :math:`sel_{base}`: repository search, no integration."""
    entry, similarity = morer.repository.search(problem)
    predictions = entry.predict(problem.features)
    return SolveResult(
        predictions=predictions,
        cluster_id=entry.cluster_id,
        similarity=similarity,
    )


def decide_cov(morer, problem, oracle, clusters):
    """The per-probe half of :math:`sel_{cov}`: given the refreshed
    clustering, decide reuse vs retrain and classify.

    Called by :meth:`MoRER._solve_cov` for each probe in order, after
    the whole batch (one probe for :meth:`MoRER.solve`) is integrated
    and reclustered once.
    """
    key = problem.key
    new_cluster = next((c for c in clusters if key in c), {key})
    trained = morer.trained_keys & new_cluster
    untrained = new_cluster - morer.trained_keys

    if not trained:
        # Every problem of the cluster is unseen: train a fresh model.
        result = morer._train_new_cluster_model(new_cluster, problem, oracle)
        result.predictions = morer.repository.entries[
            result.cluster_id
        ].predict(problem.features)
        return result

    entry = _max_overlap_entry(morer.repository, new_cluster)
    coverage = _coverage(morer, new_cluster, untrained)  # Eq. 13
    retrained = False
    labels_spent = 0
    if coverage > morer.config.t_cov and untrained:
        labels_spent = morer._update_entry(
            entry, new_cluster, untrained, coverage, oracle
        )
        retrained = labels_spent > 0
    # Keep the repository's cluster assignment in sync with G_P.
    morer.repository.reassign_cluster(entry, new_cluster)
    predictions = entry.predict(problem.features)
    return SolveResult(
        predictions=predictions,
        cluster_id=entry.cluster_id,
        retrained=retrained,
        labels_spent=labels_spent,
        coverage=coverage,
    )


def _coverage(morer, cluster, untrained):
    """Eq. 13: fraction of the cluster's vectors from untrained problems."""
    total = sum(
        morer.problem_graph.problem(k).n_pairs for k in cluster
    )
    if total == 0:
        return 0.0
    uncovered = sum(
        morer.problem_graph.problem(k).n_pairs for k in untrained
    )
    return uncovered / total


def _max_overlap_entry(repository, cluster):
    """Entry whose previous cluster overlaps the new cluster the most.

    Overlap counts come from the repository's key→entry index, so the
    cost is O(|cluster| + entries) rather than one set intersection per
    entry; a key transiently shared by several entries counts towards
    each of them, exactly like the intersections did.
    """
    if not repository.entries:
        raise LookupError("repository has no entries")
    overlaps = {}
    for key in cluster:
        for cluster_id in repository.containing_cluster_ids(key):
            overlaps[cluster_id] = overlaps.get(cluster_id, 0) + 1
    best_entry = None
    best_overlap = -1
    for cluster_id, entry in repository.entries.items():
        overlap = overlaps.get(cluster_id, 0)
        if overlap > best_overlap:
            best_overlap = overlap
            best_entry = entry
    return best_entry
