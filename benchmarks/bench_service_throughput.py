"""Service throughput bench: micro-batched vs lock-serialised serving.

Fits twin MoRER instances over the initial problem set, wraps each in
a :class:`~repro.service.MoRERService`, and drives both with the same
probe stream from 16 concurrent ``sel_cov`` client threads:

* **serialised** — ``max_batch_size=1``: every request becomes its own
  write-lock-serialised ``solve_batch`` call (what a naive lock around
  ``MoRER.solve`` would give);
* **batched** — ``max_batch_size=16``: the background scheduler
  coalesces whatever the 16 clients have in flight into one
  ``solve_batch`` tick (one sketch-prefiltered integration pass + one
  row replay per tick);
* **instrumented** — the batched arm with the gateway's admission and
  scraping on top of the metrics every service records: a per-client
  token bucket checked per request and a concurrent
  ``/metrics``-equivalent scraper rendering the registry throughout
  the run. Measures their overhead (target < 3% on the per-request
  p50) and asserts the decisions stay identical to the batched arm.

Both arms serve the identical probe set under nondeterministic arrival
order (client scheduling — exactly the serving situation). Asserts
≥ 2× wall-clock throughput of the batched arm over the serialised arm
at the 800-problem repository (the tentpole acceptance bar), genuine
coalescing (max coalesced batch ≥ 4), per-key identical reuse/retrain
decisions, ≥ 90% serving-cluster agreement (a borderline probe may tip
into a neighbouring cluster depending on which tick-mates landed
first), and byte-identical predictions wherever the serving cluster
agrees. ``--smoke`` runs one reduced size with a relaxed floor for CI.
"""

import threading
import time
from collections import Counter

import numpy as np

from repro.core import MoRER
from repro.service import MoRERService, RateLimiter, SolveRequest

try:  # under pytest the repo root is on sys.path (benchmarks/conftest)
    from benchmarks.bench_batch_solve import (
        _initial_problems,
        _probe_problems,
    )
except ImportError:  # standalone run: benchmarks/ itself is sys.path[0]
    from bench_batch_solve import _initial_problems, _probe_problems

N_CLIENTS = 16


def _fit(problems):
    morer = MoRER(
        selection="cov",
        model_generation="supervised",
        classifier="logistic_regression",
        index_threshold=1,  # warm replay + prefiltered insertion
        random_state=0,
    )
    return morer.fit(problems)


def _drive(service, probes, limiter=None, scrape=False):
    """16 client threads solving ``probes``; returns (elapsed, by_key).

    With ``limiter`` each request pays the gateway's token-bucket
    admission check first (generous quota — the cost being measured is
    the check, not rejection); with ``scrape`` a background thread
    renders the metrics registry every 50 ms, emulating a Prometheus
    scraper hitting ``/metrics`` during the run.
    """
    shares = [probes[i::N_CLIENTS] for i in range(N_CLIENTS)]
    by_key = {}
    record_lock = threading.Lock()
    errors = []
    stop_scraping = threading.Event()

    def client(index, share):
        client_id = f"bench-client-{index}"
        try:
            for probe in share:
                if limiter is not None:
                    limiter.check(client_id)
                response = service.solve(
                    SolveRequest(problem=probe, strategy="cov")
                )
                with record_lock:
                    by_key[probe.key] = response
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def scraper():
        while not stop_scraping.wait(0.05):
            service.metrics.render()

    threads = [
        threading.Thread(target=client, args=(i, share))
        for i, share in enumerate(shares)
    ]
    if scrape:
        threads.append(threading.Thread(target=scraper, daemon=True))
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads[:N_CLIENTS]:
        thread.join()
    elapsed = time.perf_counter() - started
    stop_scraping.set()
    if errors:
        raise errors[0]
    return elapsed, by_key


def _decision(response):
    return (response.retrained, response.new_model)


def _largest_tick(by_key):
    """The most responses one scheduler tick served (they share its
    ``batch_id``)."""
    return max(Counter(r.batch_id for r in by_key.values()).values())


def run(sizes, n_probes):
    results = {}
    for size in sizes:
        problems = _initial_problems(size)
        probes = _probe_problems(n_probes)
        row = {}

        with MoRERService(
            _fit(problems), max_batch_size=1, max_wait_ms=0,
        ) as serialised:
            elapsed, serial_by_key = _drive(serialised, probes)
            row["serial_ms"] = 1e3 * elapsed / n_probes
            row["serial_batches"] = serialised.stats().service[
                "batches_dispatched"
            ]

        with MoRERService(
            _fit(problems), max_batch_size=N_CLIENTS, max_wait_ms=25,
        ) as batched:
            elapsed, batch_by_key = _drive(batched, probes)
            row["batched_ms"] = 1e3 * elapsed / n_probes
            row["batches"] = batched.stats().service["batches_dispatched"]
            row["max_coalesced"] = _largest_tick(batch_by_key)

        # The batched arm again with the gateway's admission and
        # scraping on: a (generous) per-client token-bucket check per
        # request and a concurrent scraper rendering the registry.
        with MoRERService(
            _fit(problems), max_batch_size=N_CLIENTS, max_wait_ms=25,
        ) as instrumented:
            limiter = RateLimiter(rate=1e9, burst=1e9)
            elapsed, instr_by_key = _drive(
                instrumented, probes, limiter=limiter, scrape=True,
            )
            row["instr_ms"] = 1e3 * elapsed / n_probes
        row["overhead_pct"] = 100.0 * (
            row["instr_ms"] / row["batched_ms"] - 1.0
        )
        row["instr_decisions_match"] = all(
            _decision(instr_by_key[key]) == _decision(batch_by_key[key])
            for key in batch_by_key
        )

        row["speedup"] = row["serial_ms"] / row["batched_ms"]
        # Client scheduling makes arrival order nondeterministic, so a
        # borderline probe may legitimately land in a neighbouring
        # cluster depending on which tick-mates were integrated first.
        # The reuse/retrain decision must agree per key regardless;
        # cluster agreement is reported (and floored) separately, and
        # predictions must be byte-identical wherever the serving
        # cluster agrees (same entry, untouched model).
        row["decisions_match"] = all(
            _decision(serial_by_key[key]) == _decision(batch_by_key[key])
            for key in serial_by_key
        )
        agreeing = [
            key for key in serial_by_key
            if serial_by_key[key].cluster_id == batch_by_key[key].cluster_id
        ]
        row["cluster_agreement"] = len(agreeing) / len(serial_by_key)
        row["predictions_match"] = all(
            np.array_equal(
                serial_by_key[key].predictions,
                batch_by_key[key].predictions,
            )
            for key in agreeing
        )
        results[size] = row
    return results


def _print(results, n_probes):
    print()
    print(
        f"{'#Problems':>10} {'Serial (ms)':>12} {'Batched (ms)':>13} "
        f"{'Instr (ms)':>11} {'Ovhd':>7} {'Speedup':>8} {'Ticks':>6} "
        f"{'MaxCoal':>8} {'Match':>6} {'ClAgr':>6}   "
        f"({N_CLIENTS} clients, {n_probes} cov probes)"
    )
    for size, row in results.items():
        match = row["decisions_match"] and row["predictions_match"]
        print(
            f"{size:>10} {row['serial_ms']:>12.1f} "
            f"{row['batched_ms']:>13.2f} {row['instr_ms']:>11.2f} "
            f"{row['overhead_pct']:>6.1f}% {row['speedup']:>7.1f}x "
            f"{row['batches']:>6} {row['max_coalesced']:>8} "
            f"{str(match):>6} {row['cluster_agreement']:>6.2f}"
        )


def test_service_throughput_scale(benchmark, smoke):
    sizes = (150,) if smoke else (400, 800)
    n_probes = 32 if smoke else 64

    results = benchmark.pedantic(
        run, args=(sizes, n_probes), rounds=1, iterations=1,
    )
    _print(results, n_probes)

    for size, row in results.items():
        assert row["decisions_match"], size
        assert row["predictions_match"], size
        assert row["cluster_agreement"] >= 0.9, (size, row)
        # One serialised tick per probe; real coalescing in the batched
        # arm (16 in-flight clients must land together at least once).
        assert row["serial_batches"] == n_probes, (size, row)
        assert row["batches"] < n_probes, (size, row)
        assert row["max_coalesced"] >= 4, (size, row)
        # The acceptance bar: ≥ 2× over lock-serialised solving at 16
        # concurrent cov clients on the 800-problem repository. Smoke
        # compares the two arms on a tiny graph where a tick costs
        # single-digit ms, so its floor only guards against batching
        # becoming an outright slowdown on a noisy shared runner.
        floor = 2.0 if size >= 800 else (1.2 if size >= 400 else 0.8)
        assert row["speedup"] > floor, (size, row)
        # Observability must never change a decision, and its cost must
        # stay noise-level. Run-to-run wall clock on a shared runner
        # varies ~±35% (the uninstrumented arm against itself), so a
        # single-run overhead ratio cannot resolve the documented < 3%
        # p50 target; this tripwire only catches a gross regression
        # (e.g. a lock held across a solve tick).
        assert row["instr_decisions_match"], (size, row)
        assert row["overhead_pct"] < 50.0, (size, row)


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size CI mode")
    args = parser.parse_args()
    sizes = (150,) if args.smoke else (400, 800)
    n_probes = 32 if args.smoke else 64
    outcome = run(sizes, n_probes)
    _print(outcome, n_probes)
