"""Incremental ``sel_cov`` bench: warm-started reclustering + prefilter.

Builds MoRER instances over 100–800 initial problems drawn from a small
set of distribution regimes, then serves a probe stream through
``sel_cov`` two ways:

* **full** — the exact path (``index_threshold`` above any size the
  run reaches): every solve integrates the probe against all vertices
  and re-runs Leiden from scratch;
* **incremental** — the warm-started path (``index_threshold=1``:
  row replay + the sketch-prefiltered graph insertion): bounded
  local moves around the inserted vertex, full reclusters only on
  modularity degradation or the periodic bound.

Both arms share seeds, so their retraining decisions must coincide on
the scenario; cluster quality is scored as ARI between the two arms'
partitions after every solve. Asserts ARI ≥ 0.95 everywhere, identical
retraining/new-model decisions, and a ≥3× per-solve speedup at the
800-problem graph (``--smoke`` runs a single reduced size with a
relaxed >1× assertion for CI).
"""

import time

import numpy as np

from repro.core import MoRER, adjusted_rand_index
from repro.core.problem import ERProblem

N_FEATURES = 4
N_SAMPLES = 40
N_REGIMES = 5
#: An ``index_threshold`` no graph or repository in the run reaches.
EXACT_THRESHOLD = 10**9


def _problem(rng, source_a, source_b, regime):
    """Synthetic labelled ER problem in one of N_REGIMES regimes."""
    shift = 0.35 * regime / (N_REGIMES - 1)
    n_matches = N_SAMPLES // 2
    matches = np.clip(
        rng.normal(0.82 - shift, 0.07, (n_matches, N_FEATURES)), 0, 1
    )
    non_matches = np.clip(
        rng.normal(0.2 + shift, 0.08,
                   (N_SAMPLES - n_matches, N_FEATURES)),
        0, 1,
    )
    features = np.vstack([matches, non_matches])
    labels = np.concatenate([
        np.ones(n_matches, dtype=int),
        np.zeros(N_SAMPLES - n_matches, dtype=int),
    ])
    order = rng.permutation(N_SAMPLES)
    return ERProblem(source_a, source_b, features[order], labels[order])


def _initial_problems(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        _problem(rng, f"S{i}", f"T{i}", i % N_REGIMES) for i in range(n)
    ]


def _probe_problems(n, seed=991):
    rng = np.random.default_rng(seed)
    return [
        _problem(rng, f"X{i}", f"Y{i}", i % N_REGIMES) for i in range(n)
    ]


def _fit(problems, incremental):
    morer = MoRER(
        selection="cov",
        model_generation="supervised",
        classifier="logistic_regression",
        # The one size switch: from the first problem on, or never.
        index_threshold=1 if incremental else EXACT_THRESHOLD,
        random_state=0,
    )
    return morer.fit(problems)


def run(sizes, n_probes):
    results = {}
    for size in sizes:
        problems = _initial_problems(size)
        probes = _probe_problems(n_probes)
        full = _fit(problems, incremental=False)
        incremental = _fit(problems, incremental=True)
        full_s = incremental_s = 0.0
        aris, decisions_match = [], True
        warm_solves = 0
        for probe in probes:
            started = time.perf_counter()
            result_full = full.solve(probe)
            full_s += time.perf_counter() - started
            streak_before = incremental._inserts_since_full
            started = time.perf_counter()
            result_incremental = incremental.solve(probe)
            incremental_s += time.perf_counter() - started
            warm_solves += (
                incremental._inserts_since_full > streak_before
            )
            decisions_match = decisions_match and (
                result_full.retrained == result_incremental.retrained
                and result_full.new_model == result_incremental.new_model
            )
            aris.append(
                adjusted_rand_index(full.clusters_, incremental.clusters_)
            )
        results[size] = {
            "full_ms": 1e3 * full_s / n_probes,
            "incremental_ms": 1e3 * incremental_s / n_probes,
            "speedup": full_s / incremental_s,
            "min_ari": float(np.min(aris)),
            "decisions_match": decisions_match,
            "warm_solves": warm_solves,
        }
    return results


def test_sel_cov_scale_quality_and_speedup(benchmark, smoke):
    sizes = (100,) if smoke else (100, 400, 800)
    n_probes = 6 if smoke else 10

    results = benchmark.pedantic(
        run, args=(sizes, n_probes), rounds=1, iterations=1
    )
    print()
    print(f"{'#Problems':>10} {'Full (ms)':>10} {'Incr (ms)':>10} "
          f"{'Speedup':>8} {'min ARI':>8} {'Warm':>5}")
    for size in sizes:
        r = results[size]
        print(f"{size:>10} {r['full_ms']:>10.1f} "
              f"{r['incremental_ms']:>10.1f} {r['speedup']:>7.1f}x "
              f"{r['min_ari']:>8.3f} {r['warm_solves']:>5}")

    for size in sizes:
        r = results[size]
        assert r["decisions_match"], size
        assert r["min_ari"] >= 0.95, (size, r["min_ari"])
        assert r["warm_solves"] >= n_probes - 1, (size, r["warm_solves"])
    # The incremental path must win clearly once reclustering dominates;
    # smoke keeps a relaxed but real floor on a tiny graph.
    for size in sizes:
        floor = 3.0 if size >= 800 else 1.0
        assert results[size]["speedup"] > floor, (size, results[size])


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size CI mode")
    args = parser.parse_args()
    sizes = (100,) if args.smoke else (100, 400, 800)
    outcome = run(sizes, 6 if args.smoke else 10)
    for size, row in outcome.items():
        print(size, row)
