"""Batched ``sel_cov`` bench: multi-probe row replay + warm restart.

Builds MoRER instances over 400–800 initial problems and serves the
same probe stream three ways:

* **full** — the exact reference (``index_threshold`` above any size
  the run reaches): every solve integrates against all vertices and
  re-runs Leiden;
* **seq** — warm sequential solving (one row replay per probe);
* **batch** — :meth:`MoRER.solve_batch` at sizes 8 and 32: one
  sketch-prefiltered integration pass and one row replay per
  batch, decisions per probe.

Reported per size: amortised per-probe milliseconds for every arm, the
batch-over-sequential speedup (the number the batching tentpole adds on
top of the warm path), minimum ARI of each warm arm against the full
reference, whether every arm's reuse/retrain decisions coincide, and
the wall-clock of ``MoRER.save`` + ``MoRER.load`` plus the first
post-restart solve (warm-restart cost).

Asserts ARI ≥ 0.97 and identical decisions everywhere, ≥ 2× amortised
per-probe speedup of batch-32 over sequential warm solving at the
800-problem graph, and a first post-restart solve that triggers no
full recluster. ``--smoke`` runs one reduced size with a relaxed
speedup floor for CI.
"""

import time

import numpy as np

from repro.core import MoRER, adjusted_rand_index

N_FEATURES = 4
N_SAMPLES = 40
N_REGIMES = 5
#: An ``index_threshold`` no graph or repository in the run reaches.
EXACT_THRESHOLD = 10**9


def _problem(rng, source_a, source_b, regime):
    """Synthetic labelled ER problem in one of N_REGIMES regimes."""
    from repro.core.problem import ERProblem

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


def _decisions(results):
    return [(r.retrained, r.new_model) for r in results]


def run(sizes, n_probes, batch_sizes=(8, 32), save_dir=None):
    results = {}
    for size in sizes:
        problems = _initial_problems(size)
        probes = _probe_problems(n_probes)
        row = {"aris": [], "decisions_match": True}

        full = _fit(problems, incremental=False)
        started = time.perf_counter()
        full_results = [full.solve(p) for p in probes]
        row["full_ms"] = 1e3 * (time.perf_counter() - started) / n_probes
        reference = _decisions(full_results)

        sequential = _fit(problems, incremental=True)
        started = time.perf_counter()
        seq_results = [sequential.solve(p) for p in probes]
        row["seq_ms"] = 1e3 * (time.perf_counter() - started) / n_probes
        row["decisions_match"] &= _decisions(seq_results) == reference
        row["aris"].append(adjusted_rand_index(
            full.clusters_, sequential.clusters_
        ))

        for batch_size in batch_sizes:
            morer = _fit(problems, incremental=True)
            started = time.perf_counter()
            batch_results = []
            for start in range(0, n_probes, batch_size):
                batch_results.extend(
                    morer.solve_batch(probes[start:start + batch_size])
                )
            elapsed = time.perf_counter() - started
            row[f"batch{batch_size}_ms"] = 1e3 * elapsed / n_probes
            row["decisions_match"] &= (
                _decisions(batch_results) == reference
            )
            row["aris"].append(adjusted_rand_index(
                full.clusters_, morer.clusters_
            ))
            if batch_size == batch_sizes[-1] and save_dir is not None:
                store = f"{save_dir}/morer_{size}"
                started = time.perf_counter()
                morer.save(store)
                row["save_s"] = time.perf_counter() - started
                started = time.perf_counter()
                twin = MoRER.load(store)
                restart_probe = _probe_problems(1, seed=4242)[0]
                twin.solve(restart_probe)
                row["restart_s"] = time.perf_counter() - started
                row["restart_warm"] = (
                    twin.counters["full_reclusters"] == 0
                )
        row["min_ari"] = float(np.min(row.pop("aris")))
        row["speedup_batch_vs_seq"] = (
            row["seq_ms"] / row[f"batch{batch_sizes[-1]}_ms"]
        )
        row["speedup_batch_vs_full"] = (
            row["full_ms"] / row[f"batch{batch_sizes[-1]}_ms"]
        )
        results[size] = row
    return results


def _print(results, batch_sizes):
    print()
    header = (
        f"{'#Problems':>10} {'Full (ms)':>10} {'Seq (ms)':>9} "
        + " ".join(f"{'b' + str(b) + ' (ms)':>9}" for b in batch_sizes)
        + f" {'b/seq':>6} {'b/full':>7} {'min ARI':>8}"
    )
    print(header)
    for size, row in results.items():
        line = (
            f"{size:>10} {row['full_ms']:>10.1f} {row['seq_ms']:>9.1f} "
            + " ".join(
                f"{row[f'batch{b}_ms']:>9.2f}" for b in batch_sizes
            )
            + f" {row['speedup_batch_vs_seq']:>5.1f}x"
            + f" {row['speedup_batch_vs_full']:>6.1f}x"
            + f" {row['min_ari']:>8.3f}"
        )
        print(line)
        if "restart_s" in row:
            print(
                f"{'':>10} save {row['save_s'] * 1e3:.0f} ms, "
                f"warm restart (load + first solve) "
                f"{row['restart_s'] * 1e3:.0f} ms, "
                f"warm={row['restart_warm']}"
            )


def test_batch_solve_scale_quality_and_speedup(benchmark, smoke, tmp_path):
    sizes = (150,) if smoke else (400, 800)
    n_probes = 16 if smoke else 32
    batch_sizes = (8, 16) if smoke else (8, 32)

    results = benchmark.pedantic(
        run, args=(sizes, n_probes, batch_sizes, str(tmp_path)),
        rounds=1, iterations=1,
    )
    _print(results, batch_sizes)

    for size, row in results.items():
        assert row["decisions_match"], size
        assert row["min_ari"] >= 0.97, (size, row["min_ari"])
        assert row["restart_warm"], size
        # Batch integration must amortise clearly over sequential warm
        # solving once the graph is large. Smoke compares two warm arms
        # on a tiny graph where per-probe times are single-digit ms, so
        # its floor only guards against batching becoming an outright
        # slowdown — scheduler jitter on a shared runner must not break
        # the build.
        floor = 2.0 if size >= 800 else (1.0 if size >= 400 else 0.75)
        assert row["speedup_batch_vs_seq"] > floor, (size, row)


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size CI mode")
    args = parser.parse_args()
    sizes = (150,) if args.smoke else (400, 800)
    batch_sizes = (8, 16) if args.smoke else (8, 32)
    with tempfile.TemporaryDirectory() as save_dir:
        outcome = run(
            sizes, 16 if args.smoke else 32, batch_sizes, save_dir
        )
    _print(outcome, batch_sizes)
