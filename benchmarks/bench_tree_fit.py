"""Kernel bench: one-pass CART split search vs the per-feature oracle.

Fits :class:`DecisionTreeClassifier` with the one-pass split search and
with the per-feature search it replaced (``tests/tree_reference.py``)
on identical inputs, in the two shapes MoRER grows:

- ``committee``: the Bootstrap AL committee tree (§4.4) — every feature
  examined per split, ``max_depth=8``;
- ``forest``: a random-forest tree (Table 3) — ``"sqrt"`` features per
  split, unlimited depth.

Both see six similarity features with 25% label noise, at 100 / 1,000 /
10,000 rows (``--smoke``: 100 and 1,000). Asserts that both kernels grow
identical trees and, for the committee shape, that the one-pass search
is at least 1.5× faster. The forest shape's margin is smaller (its
nodes examine two features), so it is printed, not asserted.
"""

import time

import numpy as np

from repro.ml import DecisionTreeClassifier
from tests.tree_reference import FITTED, ReferenceTree

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
          f"{'One-pass (ms)':>14} {'Speedup':>8}")
    for (shape, n_rows), r in results.items():
        print(f"{shape:>10} {n_rows:>7} {r['nodes']:>6} "
              f"{r['reference_s'] * 1e3:>12.1f} {r['kernel_s'] * 1e3:>14.1f} "
              f"{r['speedup']:>7.1f}x")

    for key, r in results.items():
        assert r["identical"], key
    for n_rows in sizes:
        assert results["committee", n_rows]["speedup"] >= 1.5, n_rows
