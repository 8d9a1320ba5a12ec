"""``ingest``: an in-process ``MoRERService`` (WAL, ``fsync always``)
fed a long stream of new labelled problems by one thread that keeps a
window of :data:`WINDOW` ``submit()`` futures.

The window equals ``service_max_batch_size``: batching economics
without 16 threads. The window's problems are generated as they are
submitted, so they reach the scheduler over a few milliseconds and it
coalesces them into about two ticks. The
repository starts at :data:`N_FIT` problems, above ``index_threshold``
(128), so integration is sketch-prefiltered and reclustering replays
the partition warm. A fixed share of the stream comes from regimes
absent at fit time, so Eq. 14 retrains fire. The run is split into
:data:`CYCLES` cycles: each sets up the same repository afresh and
measures its lifecycle (:func:`perfbench.inproc.lifecycle`, with
closed-loop in-process ``base`` solves on the set-up state), then feeds
the stream from its start to the recovered instance for its share of
the measured seconds, so every metric samples the whole measured
period.
"""

from __future__ import annotations

import functools
import gc
import os
import time

from repro.service import MoRERService, SolveRequest

from . import inproc, measure
from .gen import Generator, size_spread
from .report import Outcome

N_FIT = 160
N_KNOWN = 6
N_NOVEL = 2
WINDOW = 16
#: Every block of 16 stream problems holds this many novel ones.
NOVEL_PER_BLOCK = 1
#: ``labels_per_probe`` counts the first this many windows of every
#: cycle, which every cycle runs: the same probes in the same ticks in
#: every run, however many more windows a cycle fits in its seconds
#: (a faster host fits more, past the stream's first retrains).
LABEL_WINDOWS = 5
BASE_SOLVES = 64
TAIL_TICKS = 4
TAIL_TICK_PROBES = 4
CYCLES = 8
F1_FLOOR = 0.8


def _cycle_inputs(seed):
    """The set-up state and lifecycle probes, the same in every cycle,
    plus the cycle's ``base`` probes."""
    gen = Generator(seed, N_KNOWN, N_NOVEL)
    inputs = inproc.CycleInputs(
        fit=gen.known("F", N_FIT),
        tail=[gen.known("T", TAIL_TICK_PROBES) for _ in range(TAIL_TICKS)],
        identity=[p.without_labels() for p in gen.known("I", 4)],
        restart_probe=gen.problem("R", 0, 64),
    )
    return inputs, inproc.base_probes(gen, BASE_SOLVES)


def _ingest(service, stream, seconds):
    """The closed loop: submit a window of :data:`WINDOW` probes, wait
    for all of them, and submit the next window, until ``seconds`` have
    passed and at least :data:`LABEL_WINDOWS` windows ran.
    Returns ``(start, records)`` with one ``[problem, novel, submitted,
    submit_returned, done, result]`` per probe (``result`` an exception
    when the solve failed)."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    while (time.perf_counter() < deadline
           or len(records) < LABEL_WINDOWS * WINDOW):
        window = []
        for _ in range(WINDOW):
            problem, novel = next(stream)
            record = [problem, novel, time.perf_counter(), None, None, None]
            future = service.submit(SolveRequest(problem, "cov"))
            record[3] = time.perf_counter()
            future.add_done_callback(
                lambda _f, record=record: record.__setitem__(
                    4, time.perf_counter()))
            window.append((record, future))
        for record, future in window:
            try:
                record[5] = future.result()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                record[5] = exc
            records.append(record)
    return start, records


def run(root, workdir, seed, seconds, tracer=None):
    out = Outcome("ingest")
    samples = {name: [] for name in (
        "setup_s", "fit_s", "checkpoint_s", "store_mb", "recover_s",
        "restart_s", "base_ms", "base_p50_ms", "base_rps")}
    f1 = measure.F1()
    records, peak_rss, graph_size = [], 0.0, 0
    cycle_cov_p50, cycle_rates = [], []
    prefix_labels = prefix_probes = 0
    out.layer_context.update({"wal_bytes": 0, "wal_fsyncs": 0})

    def base_burst(probes, service):
        latencies, windows = inproc.base_solves(service.solve, probes, f1)
        samples["base_ms"].extend(latencies)
        samples["base_p50_ms"].append(measure.median(latencies))
        samples["base_rps"].append(
            len(latencies) / (windows[-1][1] - windows[0][0]))
        for latency, span in zip(latencies, windows):
            out.ops.append({"type": "base", "latency_s": latency / 1e3,
                            "window": list(span), "thread": "MainThread"})

    for index in range(CYCLES):
        gc.collect()
        started = time.perf_counter()
        inputs, base = _cycle_inputs(seed)
        setup, morer = inproc.lifecycle(
            out, samples, workdir, inputs, started,
            during=functools.partial(base_burst, base))
        samples["setup_s"].append(setup)
        wal_dir = os.path.join(workdir, f"wal-ingest{index}")
        # Every cycle feeds the same stream from its start.
        stream = Generator(seed, N_KNOWN, N_NOVEL).fork(1).stream(
            "S", 16, NOVEL_PER_BLOCK)
        service = MoRERService(morer, wal_dir=wal_dir, fsync_policy="always")
        try:
            start, cycle_records = _ingest(service, stream, seconds / CYCLES)
            peak_rss = max(peak_rss, measure.peak_rss_mb())
            graph_size = max(graph_size, len(morer.problem_graph))
            out.layer_context["wal_bytes"] += measure.dir_bytes(wal_dir)
            out.layer_context["wal_fsyncs"] += inproc.wal_fsyncs(service)
        finally:
            service.close()
        records.extend(cycle_records)
        for record in cycle_records[:LABEL_WINDOWS * WINDOW]:
            if not isinstance(record[5], Exception):
                prefix_labels += record[5].labels_spent
                prefix_probes += 1
        cycle_cov_p50.append(measure.median(
            [1e3 * (record[4] - record[2]) for record in cycle_records]))
        cycle_rates.append(len(cycle_records) / (
            max(record[4] for record in cycle_records) - start))

    cov_ms, labels, novel, sizes = [], 0, 0, []
    retrains = new_models = 0
    for problem, is_novel, submitted, returned, done, result in records:
        ok = not isinstance(result, Exception)
        out.count(ok)
        if not ok:
            continue
        cov_ms.append(1e3 * (done - submitted))
        labels += result.labels_spent
        retrains += result.retrained
        new_models += result.new_model
        novel += is_novel
        sizes.append(problem)
        f1.add(result.predictions, problem.labels)
        out.ops.append({
            "type": "cov", "latency_s": done - submitted,
            "window": [submitted, returned], "thread": "MainThread",
            "keys": ["|".join(problem.key)],
        })
    completed = len(cov_ms)
    out.layer_context["wal_probes"] = completed
    out.layer_context["store"] = os.path.join(workdir, "store")

    inproc.lifecycle_metrics(out, samples)
    out.metrics["peak_rss_mb"] = peak_rss
    out.metrics["ok_ratio"] = (out.attempted - out.failed) / out.attempted
    # Every cycle feeds the same probes to the same state, so the cov
    # metrics are those of the fastest cycle, as for the base bursts.
    out.metrics["cov_p50_ms"] = measure.best(cycle_cov_p50)
    value, pct, n = measure.tail(cov_ms)
    out.metrics["cov_tail_ms"] = value
    out.metrics["probes_per_s"] = max(cycle_rates)
    out.metrics["labels_per_probe"] = prefix_labels / max(prefix_probes, 1)
    out.metrics["f1"] = f1.value
    # Every burst solves the same probes on the same set-up state.
    out.metrics["base_p50_ms"] = measure.best(samples["base_p50_ms"])
    out.metrics["max_rps"] = max(samples["base_rps"])
    base_value, base_pct, base_n = measure.tail(samples["base_ms"])
    out.metrics["base_tail_ms"] = base_value
    out.properties.update({
        "cov_tail": {"percentile": pct, "samples": n},
        "base_tail": {"percentile": base_pct, "samples": base_n},
        "base_p50_ms_all": samples["base_p50_ms"],
        "base_rps_all": samples["base_rps"],
        "cov_p50_ms_all": cycle_cov_p50,
        "probes_per_s_all": cycle_rates,
        "novel_share": novel / max(completed, 1),
        "retrains": retrains,
        "new_models": new_models,
        "sizes": size_spread(sizes) if sizes else {},
        "graph_problems": {"fit": N_FIT, "final": graph_size},
        "probes": completed,
        "labels_per_probe_all_windows": labels / max(completed, 1),
    })
    out.check("no failed operations", out.failed == 0, f"{out.failed}")
    out.check(f"f1 >= {F1_FLOOR}", f1.value >= F1_FLOOR, f"{f1.value:.4f}")
    out.check("graph above index_threshold for the whole run",
              N_FIT >= inproc.config().index_threshold,
              f"{N_FIT} -> {graph_size} problems")
    return out
