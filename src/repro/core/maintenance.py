"""Repository maintenance: cluster stability measures (§7 future work).

The paper's conclusion proposes relating model performance to *cluster
stability*. This module implements the standard stability toolkit over
the ER problem graph:

* **silhouette-style cohesion** — how much more similar a problem is to
  its own cluster than to the best foreign cluster,
* **conductance** — the fraction of a cluster's edge weight that leaks
  out of it,
* **perturbation stability** — agreement (adjusted Rand index) between
  the clustering and reclusterings under different seeds.

`repository_health` combines them into a per-cluster report that a
deployment can monitor to decide *when* retraining is worthwhile, the
missing criterion the paper names.
"""

from __future__ import annotations

import numpy as np

from ..ml.utils import check_random_state
from .morer import NotFittedError

__all__ = [
    "silhouette_scores",
    "cluster_conductance",
    "adjusted_rand_index",
    "perturbation_stability",
    "repository_health",
]


def silhouette_scores(graph, clusters):
    """Silhouette-style score per problem on the similarity graph.

    For problem *p* in cluster *C*: ``a(p)`` is the mean edge weight to
    its own cluster, ``b(p)`` the best mean weight to a foreign
    cluster; the score is ``(a - b) / max(a, b)`` — note similarities
    (not distances), so the sign is flipped relative to the classic
    formula. Returns ``{problem_key: score}`` in ``[-1, 1]``.
    """
    membership = {}
    for index, cluster in enumerate(clusters):
        for key in cluster:
            membership[key] = index
    adjacency = graph.to_graph()
    scores = {}
    for key in membership:
        own = []
        foreign = {}
        for other, weight in adjacency.neighbors(key).items():
            if other == key:
                continue
            if membership.get(other) == membership[key]:
                own.append(weight)
            else:
                foreign.setdefault(membership.get(other), []).append(weight)
        a = float(np.mean(own)) if own else 0.0
        b = max(
            (float(np.mean(weights)) for weights in foreign.values()),
            default=0.0,
        )
        denominator = max(a, b)
        scores[key] = (a - b) / denominator if denominator > 0 else 0.0
    return scores


def cluster_conductance(graph, cluster):
    """Conductance of one cluster: boundary weight / total volume.

    0 means perfectly isolated, values near 1 mean the cluster's edges
    mostly leave it — an unstable cluster whose model is suspect.
    """
    cluster = set(cluster)
    adjacency = graph.to_graph()
    internal = 0.0
    boundary = 0.0
    for key in cluster:
        for other, weight in adjacency.neighbors(key).items():
            if other == key:
                continue
            if other in cluster:
                internal += weight  # counted twice over members
            else:
                boundary += weight
    volume = internal + boundary
    if volume == 0:
        return 0.0
    return boundary / volume


def adjusted_rand_index(clusters_a, clusters_b):
    """Adjusted Rand index between two clusterings of the same keys."""
    label_a = {}
    for index, cluster in enumerate(clusters_a):
        for key in cluster:
            label_a[key] = index
    label_b = {}
    for index, cluster in enumerate(clusters_b):
        for key in cluster:
            label_b[key] = index
    keys = sorted(label_a, key=repr)
    if set(label_a) != set(label_b):
        raise ValueError("clusterings cover different key sets")
    n = len(keys)
    if n < 2:
        return 1.0

    # Contingency table.
    contingency = {}
    for key in keys:
        pair = (label_a[key], label_b[key])
        contingency[pair] = contingency.get(pair, 0) + 1
    sum_cells = sum(c * (c - 1) / 2 for c in contingency.values())
    a_counts = {}
    b_counts = {}
    for (la, lb), count in contingency.items():
        a_counts[la] = a_counts.get(la, 0) + count
        b_counts[lb] = b_counts.get(lb, 0) + count
    sum_a = sum(c * (c - 1) / 2 for c in a_counts.values())
    sum_b = sum(c * (c - 1) / 2 for c in b_counts.values())
    total = n * (n - 1) / 2
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def perturbation_stability(problem_graph, algorithm="leiden",
                           resolution=1.0, n_runs=5, random_state=None):
    """Mean pairwise ARI across reclusterings under different seeds.

    1.0 = the clustering is completely reproducible; low values signal
    that cluster-model assignments are arbitrary and models should be
    revalidated.
    """
    rng = check_random_state(random_state)
    runs = []
    for _ in range(n_runs):
        seed = int(rng.integers(0, 2**31 - 1))
        runs.append(
            problem_graph.cluster(algorithm, resolution, seed)
        )
    if len(runs) < 2:
        return 1.0
    scores = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            scores.append(adjusted_rand_index(runs[i], runs[j]))
    return float(np.mean(scores))


def repository_health(morer, n_runs=3):
    """Per-cluster stability report for a fitted :class:`MoRER`.

    Returns a list of dicts with cluster id, size, mean silhouette,
    conductance and the repository-wide perturbation stability — the
    §7 monitoring signal for when to retrain.
    """
    if morer.repository is None or morer.clusters_ is None:
        raise NotFittedError("MoRER is not fitted")
    graph = morer.problem_graph
    silhouettes = silhouette_scores(graph, morer.clusters_)
    stability = perturbation_stability(
        graph, morer.config.clustering_algorithm,
        morer.config.resolution, n_runs=n_runs,
        random_state=morer.config.random_state,
    )
    report = []
    for entry in morer.repository:
        keys = entry.problem_keys
        members = [silhouettes.get(key, 0.0) for key in keys]
        report.append({
            "cluster_id": entry.cluster_id,
            "n_problems": len(keys),
            "mean_silhouette": float(np.mean(members)) if members else 0.0,
            "conductance": cluster_conductance(graph, keys),
            "labels_spent": entry.labels_spent,
            "perturbation_stability": stability,
        })
    return report
