"""WAL overhead and recovery bench for the durability layer.

Serves the same ``sel_cov`` probe stream through three twin services —
no WAL, WAL with ``fsync off``, WAL with ``fsync always`` — and
reports the per-solve cost of write-ahead logging at each durability
level. Then crashes the ``always`` arm (by abandoning it without a
save), recovers from snapshot + WAL tail, and asserts the recovered
twin is decision-identical: same graph version, same RNG stream, same
predictions on a fresh probe set.

The overhead assertion is deliberately loose (logging must not
dominate): a cov solve does clustering work orders of magnitude
heavier than framing a few KB of JSON, so WAL-on must stay within a
small multiple of WAL-off even with per-record fsync on a slow CI
disk.
"""

import time

import numpy as np

from repro.durability import recover
from repro.service import MoRERService
from repro.service.fixtures import demo_morer, demo_probes


def _drive(service, probes):
    started = time.perf_counter()
    responses = [service.solve(probe) for probe in probes]
    return time.perf_counter() - started, responses


def run(n_problems, n_probes, tmp_dir):
    probes = demo_probes(n_probes, seed=77)
    row = {}

    with MoRERService(demo_morer(n_problems)) as bare:
        elapsed, base_responses = _drive(bare, probes)
        row["off_ms"] = 1e3 * elapsed / n_probes

    with MoRERService(
        demo_morer(n_problems), wal_dir=tmp_dir / "wal_nosync",
        fsync_policy="off",
    ) as nosync:
        elapsed, _ = _drive(nosync, probes)
        row["wal_nosync_ms"] = 1e3 * elapsed / n_probes

    store, wal_dir = tmp_dir / "store", tmp_dir / "wal_sync"
    live = demo_morer(n_problems)
    durable = MoRERService(live, wal_dir=wal_dir, fsync_policy="always")
    durable.save(store)
    elapsed, durable_responses = _drive(durable, probes)
    row["wal_fsync_ms"] = 1e3 * elapsed / n_probes
    row["wal_records"] = durable.metrics.wal_appends_total.value()

    # Crash without saving; recover and compare against the live twin.
    started = time.perf_counter()
    recovered, report = recover(wal_dir, store=store)
    row["recovery_ms"] = 1e3 * (time.perf_counter() - started)
    row["replayed"] = report.n_replayed
    row["recovered_identical"] = (
        recovered.problem_graph.version == live.problem_graph.version
        and recovered._rng.bit_generator.state
        == live._rng.bit_generator.state
    )
    fresh = demo_probes(4, seed=78)
    row["predictions_match"] = all(
        np.array_equal(
            live.solve(a, strategy="cov").predictions,
            recovered.solve(b, strategy="cov").predictions,
        )
        for a, b in zip(fresh, fresh)
    )
    row["decisions_match"] = all(
        bare.retrained == wal.retrained and bare.new_model == wal.new_model
        for bare, wal in zip(base_responses, durable_responses)
    )
    durable.close()
    return row


def _print(row, n_probes):
    print()
    print(
        f"{'WAL off (ms)':>13} {'fsync off':>10} {'fsync always':>13} "
        f"{'Recovery (ms)':>14} {'Replayed':>9} {'Match':>6}   "
        f"({n_probes} cov probes)"
    )
    match = row["recovered_identical"] and row["predictions_match"]
    print(
        f"{row['off_ms']:>13.2f} {row['wal_nosync_ms']:>10.2f} "
        f"{row['wal_fsync_ms']:>13.2f} {row['recovery_ms']:>14.1f} "
        f"{row['replayed']:>9} {str(match):>6}"
    )


def test_wal_overhead_and_recovery(benchmark, smoke, tmp_path):
    n_problems = 10 if smoke else 24
    n_probes = 8 if smoke else 24

    row = benchmark.pedantic(
        run, args=(n_problems, n_probes, tmp_path), rounds=1, iterations=1,
    )
    _print(row, n_probes)

    assert row["replayed"] >= 1
    assert row["recovered_identical"], row
    assert row["predictions_match"], row
    # The WAL holds one record per solve tick, and nothing else.
    assert row["wal_records"] == n_probes
    # Durability must not dominate serving: even per-record fsync stays
    # within a small multiple of the un-logged service (cov solves do
    # clustering work; framing JSON is noise). Generous for CI disks.
    assert row["wal_fsync_ms"] < row["off_ms"] * 5 + 50, row


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    import argparse
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size CI mode")
    args = parser.parse_args()
    n_problems = 10 if args.smoke else 24
    n_probes = 8 if args.smoke else 24
    with tempfile.TemporaryDirectory() as tmp:
        outcome = run(n_problems, n_probes, Path(tmp))
    _print(outcome, n_probes)
