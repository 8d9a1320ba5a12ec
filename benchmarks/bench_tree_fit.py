"""Kernel bench: the ensemble tree kernel vs the per-tree oracle.

Two arms, each on identical inputs for the kernel and for the per-tree
code it replaced (``tests/tree_reference.py``).

Single trees, :class:`DecisionTreeClassifier` in the two shapes MoRER
grows:

- ``committee``: the Bootstrap AL committee tree (§4.4) — every feature
  examined per split, ``max_depth=8``;
- ``forest``: a random-forest tree (Table 3) — ``"sqrt"`` features per
  split, unlimited depth.

Both see six similarity features with 25% label noise, at 100 / 1,000 /
10,000 rows (``--smoke``: 100 and 1,000). Asserts that both grow
identical trees and, for the committee shape, that the kernel is at
least 1.5× faster. A lone ``"sqrt"`` tree pops one node per step (its
feature draws follow its depth-first order), so it pays the lock step's
fixed cost per node: printed, not asserted.

Ensembles, fit plus one query, sized from perfbench's ``ingest``
traffic:

- ``committee``: 10 bagged depth-8 trees on the largest labelled set an
  AL run reaches (335 rows), voting over the unlabelled pool (3,300
  rows);
- ``forest``: a cluster model, 30 ``"sqrt"`` trees of depth 10 on 550
  rows, giving ``predict_proba`` for one probe (51 rows).

Their data are two-class similarity vectors whose classes barely
overlap, as in the benchmark's regimes. Asserts identical trees, votes
and probabilities, and a kernel faster than the per-tree loops by at
least 2× for the committee and 1.5× for the forest (on 2 shared vCPUs
they measured 3.7–5.8× and 2.2–3.3×). Beside each arm's time it prints
the kernel's traced peak over one fit plus query (tracemalloc, outside
the timed runs); ``tests/test_tree_kernel.py`` gates ``grow_trees``'
own peak.
"""

import time

import numpy as np

from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    RandomForestClassifier,
)
from tests.matrix_reference import traced_peak
from tests.tree_reference import (
    FITTED,
    ReferenceBagging,
    ReferenceForest,
    ReferenceTree,
)

N_FEATURES = 6
NOISE = 0.25
SHAPES = {
    "committee": {"max_depth": 8},
    "forest": {"max_features": "sqrt"},
}


def _data(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n_rows, N_FEATURES))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    flip = rng.random(n_rows) < NOISE
    y[flip] = 1 - y[flip]
    return X, y


def _best_fit(cls, X, y, params, repeats):
    """Best-of-``repeats`` fit time and the last fitted tree."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        tree = cls(random_state=0, **params).fit(X, y)
        times.append(time.perf_counter() - started)
    return min(times), tree


def test_tree_fit_speedup(benchmark, smoke):
    sizes = (100, 1_000) if smoke else (100, 1_000, 10_000)

    def run():
        results = {}
        for shape, params in SHAPES.items():
            for n_rows in sizes:
                X, y = _data(n_rows)
                repeats = 7 if n_rows <= 1_000 else 3
                reference_s, reference = _best_fit(
                    ReferenceTree, X, y, params, repeats
                )
                kernel_s, kernel = _best_fit(
                    DecisionTreeClassifier, X, y, params, repeats
                )
                results[shape, n_rows] = {
                    "reference_s": reference_s,
                    "kernel_s": kernel_s,
                    "speedup": reference_s / kernel_s,
                    "nodes": kernel.n_nodes_,
                    "identical": all(
                        np.array_equal(getattr(kernel, name),
                                       getattr(reference, name))
                        for name in FITTED
                    ),
                }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'Shape':>10} {'Rows':>7} {'Nodes':>6} {'Oracle (ms)':>12} "
          f"{'Kernel (ms)':>14} {'Speedup':>8}")
    for (shape, n_rows), r in results.items():
        print(f"{shape:>10} {n_rows:>7} {r['nodes']:>6} "
              f"{r['reference_s'] * 1e3:>12.1f} {r['kernel_s'] * 1e3:>14.1f} "
              f"{r['speedup']:>7.1f}x")

    for key, r in results.items():
        assert r["identical"], key
    for n_rows in sizes:
        assert results["committee", n_rows]["speedup"] >= 1.5, n_rows


#: shape -> (kernel class, per-tree class, parameters, training rows,
#: query rows, query method, speedup floor).
ENSEMBLES = {
    "committee": (
        BaggingClassifier, ReferenceBagging,
        {"base_estimator": DecisionTreeClassifier(max_depth=8),
         "n_estimators": 10},
        335, 3_300, "vote_matrix", 2.0,
    ),
    "forest": (
        RandomForestClassifier, ReferenceForest,
        {"n_estimators": 30, "max_depth": 10},
        550, 51, "predict_proba", 1.5,
    ),
}


def _similarities(n_rows, rng):
    """Similarity vectors of a 30% match share, the classes' feature
    means 0.5 apart with little overlap."""
    y = (rng.random(n_rows) < 0.3).astype(int)
    X = np.clip(0.25 + 0.5 * y[:, None]
                + rng.normal(0.0, 0.12, (n_rows, N_FEATURES)), 0.0, 1.0)
    return X, y


def _best_ensemble(cls, params, X, y, queries, method, repeats):
    """Best-of-``repeats`` fit-plus-query time, the last model and its
    answer."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        model = cls(random_state=0, **params).fit(X, y)
        answer = getattr(model, method)(queries)
        times.append(time.perf_counter() - started)
    return min(times), model, answer


def test_ensemble_fit_and_query_speedup(benchmark, smoke):
    def run():
        results = {}
        rng = np.random.default_rng(1)
        for shape, (kernel_cls, reference_cls, params, n_rows, n_queries,
                    method, _floor) in ENSEMBLES.items():
            X, y = _similarities(n_rows, rng)
            queries, _ = _similarities(n_queries, rng)
            repeats = 3 if smoke else 7
            reference_s, reference, expected = _best_ensemble(
                reference_cls, params, X, y, queries, method, repeats)
            kernel_s, kernel, answer = _best_ensemble(
                kernel_cls, params, X, y, queries, method, repeats)
            _, peak = traced_peak(_best_ensemble, kernel_cls, params, X, y,
                                  queries, method, 1)
            results[shape] = {
                "reference_s": reference_s,
                "kernel_s": kernel_s,
                "kernel_peak_mb": peak / 1e6,
                "speedup": reference_s / kernel_s,
                "nodes": sum(tree.n_nodes_ for tree in kernel.estimators_),
                "identical": np.array_equal(answer, expected) and all(
                    np.array_equal(getattr(mine, name), getattr(theirs, name))
                    for mine, theirs in zip(kernel.estimators_,
                                            reference.estimators_)
                    for name in FITTED + ("classes_",)
                ),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'Ensemble':>10} {'Nodes':>6} {'Per-tree (ms)':>14} "
          f"{'Kernel (ms)':>12} {'Kernel peak (MB)':>17} {'Speedup':>8}")
    for shape, r in results.items():
        print(f"{shape:>10} {r['nodes']:>6} {r['reference_s'] * 1e3:>14.1f} "
              f"{r['kernel_s'] * 1e3:>12.1f} {r['kernel_peak_mb']:>17.2f} "
              f"{r['speedup']:>7.1f}x")

    for shape, r in results.items():
        assert r["identical"], shape
        assert r["speedup"] >= ENSEMBLES[shape][-1], shape
