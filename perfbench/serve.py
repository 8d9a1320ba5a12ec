"""``serve``: a durable ``repro serve`` subprocess under an open-loop
Poisson stream from two ``ServiceClient`` threads.

The repository starts at :data:`N_FIT` problems and stays below
``index_threshold`` (128) for the whole run, so every ``cov`` tick takes
the exact full-Leiden path and reads wait behind write-locked ticks.
The run is split into :data:`CYCLES` cycles. Each cycle sets up the
same repository afresh and measures its lifecycle in process
(:func:`perfbench.inproc.lifecycle`), starts a server on the
checkpoint, then replays the run's short ladder of fixed rates, in
which each request is timed from when it was due.
"""

from __future__ import annotations

import gc
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from repro.service import ServiceClient, SolveRequest

from . import inproc, measure, tracing
from .gen import REGIME_SEED, Generator, size_spread
from .report import Outcome

N_FIT = 48
N_KNOWN = 6
N_NOVEL = 2
#: Fixed request rates (req/s) of the ladder, each run for an equal
#: share of the measured seconds. The median base latency is reported
#: at NOMINAL; the base tail pools every rung.
LADDER = (10, 20, 40)
NOMINAL = 20
#: ``max_rps`` counts a rung only if its base tail stays within this.
LATENCY_LIMIT_MS = 250.0
#: A rung's backlog "grows" when the median lateness of its last
#: quarter exceeds this: a backlog that keeps growing reaches it, a
#: stall behind one long tick drains well before.
LATENESS_GROWTH_MS = 500.0
COV_SHARE = 0.12
#: Every 20 ``cov`` probes hold this many from regimes absent at fit.
NOVEL_PER_20_COV = 2
HOT_SHARE = 0.5
HOT_SET = 8
#: Per-client mutation quota, well above the offered ``cov`` rate.
RATE_LIMIT = 50
#: The run is split into this many cycles, each a fresh set-up and a
#: short ladder, so every metric samples the whole measured period.
CYCLES = 10
#: One-probe ``cov`` ticks each set-up logs: the WAL tail that
#: ``recover_s`` replays.
TAIL = 6
CLIENTS = 2
F1_FLOOR = 0.8


class Slot:
    __slots__ = ("due", "kind", "rung", "request", "truth")

    def __init__(self, due, kind, rung, request=None, truth=None):
        self.due = due
        self.kind = kind
        self.rung = rung
        self.request = request
        self.truth = truth


class Inputs:
    """The load of one run, generated from the seed: one ladder of
    request slots, which every cycle replays against its own server."""

    def __init__(self, seed, seconds):
        # The repository and the cov probes that grow it are the same
        # for every seed: which probes trigger a retraining then does not
        # depend on the seed, and a retraining tick stalls every read
        # behind it. The seed draws the read traffic and all timing.
        fixed = Generator(REGIME_SEED, N_KNOWN, N_NOVEL)
        gen = Generator(seed, N_KNOWN, N_NOVEL)
        rng = gen.rng
        hot = gen.known("H", HOT_SET)
        hot_requests = [SolveRequest(p.without_labels(), "base") for p in hot]
        cov_stream = fixed.fork(1).stream("C", 20, NOVEL_PER_20_COV)
        cold_stream = gen.fork(2).stream("B", 12, 0)
        self.rung_s = seconds / CYCLES / len(LADDER)
        self.slots = []
        sent = []
        for rung, rate in enumerate(LADDER):
            n = int(round(rate * self.rung_s))
            n_cov = int(round(COV_SHARE * n))
            n_hot = int(round(HOT_SHARE * (n - n_cov)))
            kinds = ["cov"] * n_cov + ["hot"] * n_hot
            kinds += ["cold"] * (n - len(kinds))
            rng.shuffle(kinds)
            dues = np.sort(rng.uniform(0.0, self.rung_s, n))
            for due, kind in zip(dues, kinds):
                due = float(due) + rung * self.rung_s
                if kind == "hot":
                    index = int(rng.integers(HOT_SET))
                    problem, request = hot[index], hot_requests[index]
                elif kind == "cov":
                    problem = next(cov_stream)[0]
                    request = SolveRequest(problem, "cov")
                else:
                    problem = next(cold_stream)[0]
                    request = SolveRequest(problem.without_labels(), "base")
                sent.append(problem)
                self.slots.append(Slot(due, kind, rung, request,
                                       problem.labels))
        ladder_s = self.rung_s * len(LADDER)
        for second in np.arange(0.5, ladder_s, 1.0):
            self.slots.append(Slot(float(second), "metrics",
                                   int(second // self.rung_s)))
        self.slots.sort(key=lambda slot: slot.due)
        self.sizes = size_spread(sent)


def _cycle_inputs(seed):
    """The set-up state and lifecycle probes, the same in every cycle."""
    fixed = Generator(REGIME_SEED, N_KNOWN, N_NOVEL)
    return inproc.CycleInputs(
        fit=fixed.known("F", N_FIT),
        tail=[[problem] for problem in fixed.known("T", TAIL)],
        identity=[p.without_labels() for p in Generator(
            seed, N_KNOWN, N_NOVEL).known("I", 4)],
        restart_probe=fixed.problem("R", 0, 64),
    )


class ServerProcess:
    """One ``repro serve`` subprocess on a store + WAL (traced through
    :mod:`perfbench.launcher` when ``spans`` names a dump file)."""

    def __init__(self, root, workdir, tag, spans=None):
        self.spans = spans
        args = [
            "serve", "--store", os.path.join(workdir, "store"),
            "--wal-dir", os.path.join(workdir, "wal"), "--fsync", "always",
            "--access-log", os.path.join(workdir, "access.log"),
            "--rate-limit", str(RATE_LIMIT), "--rate-burst", str(RATE_LIMIT),
            "--host", "127.0.0.1", "--port", "0",
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable,
                       os.path.join(root, "perfbench", "launcher.py"),
                       spans, *args[1:]]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=(
            os.path.join(root, "src") + os.pathsep + root))
        self._stderr_path = os.path.join(workdir, f"{tag}.stderr")
        self._stderr = open(self._stderr_path, "w")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env,
            cwd=root, text=True,
        )
        # A reader thread, because the server may print several lines at
        # once and a buffered readline would hide the later ones from a
        # select() on the pipe.
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.url = self._await_url(120.0)
        except BaseException:
            self.stop()
            raise

    def _pump(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_url(self, timeout):
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(deadline - time.monotonic(), 0.001))
            except queue.Empty:
                raise RuntimeError("repro serve did not start in time") \
                    from None
            if line is None:
                self.proc.wait(10)
                with open(self._stderr_path) as fh:
                    detail = fh.read()[-2000:]
                raise RuntimeError(f"repro serve exited: {detail}")
            match = re.search(r" at (http://\S+) ", line)
            if line.startswith("serving ") and match:
                return match.group(1)

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        """SIGINT (clean shutdown, WAL closed, spans written); kill only
        if it does not exit in time. Returns the span dump, if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._reader.join(30)
        self.proc.stdout.close()
        self._stderr.close()
        if self.spans is not None and os.path.exists(self.spans):
            return tracing.load(self.spans)
        return None


def _drive(url, slots, cycle):
    """Send every slot at its due time from :data:`CLIENTS` threads.

    Returns ``(start, records)``: one ``(sent, done, ok, result, client,
    seq)`` record per slot, times in ``perf_counter`` seconds."""
    lock = threading.Lock()
    cursor = [0]
    records = [None] * len(slots)
    start = time.perf_counter() + 0.2

    def worker(client_id):
        client = ServiceClient(url, client_id=client_id, retries=0,
                               timeout=60.0)
        seq = 0
        while True:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            if k >= len(slots):
                return
            slot = slots[k]
            delay = start + slot.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            seq += 1
            sent = time.perf_counter()
            try:
                if slot.kind == "metrics":
                    result = client.metrics()
                else:
                    result = client.solve(slot.request)
                ok = True
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result, ok = repr(exc), False
            records[k] = (sent, time.perf_counter(), ok, result, client_id,
                          seq)

    names = [f"perf-c{cycle}-{i}" for i in range(CLIENTS)]
    threads = [threading.Thread(target=worker, args=(name,), name=name)
               for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, records


def _lateness_grows(rows):
    """``rows``: (due, lateness) of one rung in due order."""
    quarter = max(len(rows) // 4, 1)
    last = np.median([late for _, late in rows[-quarter:]])
    return last * 1e3 > LATENESS_GROWTH_MS


def _start(root, workdir, tag, spans):
    """Spawn a server; returns ``(server, admin client)`` once ready."""
    server = ServerProcess(
        root, workdir, tag,
        os.path.join(workdir, f"spans-{tag}.json") if spans else None)
    admin = ServiceClient(server.url, client_id="perf-admin", retries=0,
                          timeout=120.0)
    try:
        admin.wait_ready(timeout=60.0)
    except BaseException:
        server.stop()
        raise
    return server, admin


def _cycle(out, root, workdir, seed, tag, spans, samples):
    """One cycle's set-up: the in-process lifecycle, then a server on
    the abandoned service's checkpoint and WAL, which replays the WAL
    tail before it is ready (``setup_s`` counts this server start too).
    Returns the server and an admin client, warmed up."""
    started = time.perf_counter()
    inputs = _cycle_inputs(seed)
    setup, _recovered = inproc.lifecycle(out, samples, workdir, inputs,
                                         started, check_recluster=False)
    spawned = time.perf_counter()
    server, admin = _start(root, workdir, tag, spans)
    samples["setup_s"].append(setup + time.perf_counter() - spawned)
    try:
        for probe in inputs.identity:
            admin.solve(probe, strategy="base")
    except BaseException:
        server.stop()
        raise
    return server, admin


def run(root, workdir, seed, seconds, tracer=None):
    out = Outcome("serve")
    spans = tracer is not None
    samples = {name: [] for name in ("setup_s", "fit_s", "restart_s",
                                     "recover_s", "checkpoint_s", "store_mb",
                                     "spans")}
    inputs = Inputs(seed, seconds)
    ladders, finals = [], []
    wal_bytes = 0
    peak_rss = 0.0
    for index in range(CYCLES):
        gc.collect()
        tag = f"server{index}"
        server, admin = _cycle(out, root, workdir, seed, tag, spans, samples)
        try:
            start, records = _drive(server.url, inputs.slots, index)
            ladders.append((start, records))
            finals.append((admin.metrics(), admin.stats()))
            peak_rss = max(peak_rss, measure.peak_rss_mb(server.pid))
            out.properties["blas_threads_server"] = (
                measure.process_blas_threads(server.pid))
        finally:
            samples["spans"].append((tag, server.stop()))
        wal_bytes += measure.dir_bytes(os.path.join(workdir, "wal"))

    inproc.lifecycle_metrics(out, samples)
    out.metrics["peak_rss_mb"] = peak_rss
    _score(out, inputs, ladders)
    errors_5xx = sum(measure.metric_total(
        text, "morer_http_requests_total", lambda head: 'status="5' in head)
        for text, _stats in finals)
    out.check("no 5xx responses", errors_5xx == 0, f"{errors_5xx:g}")
    largest = max(stats.n_problems for _text, stats in finals)
    out.check(
        "graph below index_threshold for the whole run",
        largest < inproc.config().index_threshold, f"{largest} problems")
    out.properties["graph_problems"] = {"fit": N_FIT, "final": largest}
    out.properties["sizes"] = inputs.sizes
    out.properties["ladder"] = {"rates": list(LADDER), "nominal": NOMINAL,
                                "cycles": CYCLES, "rung_s": inputs.rung_s,
                                "latency_limit_ms": LATENCY_LIMIT_MS}
    out.layer_context.update({
        "http_errors_5xx": errors_5xx,
        "limiter_rejected": sum(measure.metric_total(
            text, "morer_http_rate_limited_total") for text, _ in finals),
        "wal_fsyncs": sum(measure.metric_total(
            text, "morer_wal_fsyncs_total") for text, _ in finals),
        "wal_bytes": wal_bytes,
        "wal_probes": out.properties["cov_requests"],
        "store": os.path.join(workdir, "store"),
    })
    if spans:
        out.child_spans = samples["spans"]
    return out


def _score(out, inputs, ladders):
    """Scores the ladders, pooling every cycle: a cycle holds too few
    requests at one rate for a median of its own."""
    f1 = measure.F1()
    rungs = [{"base": [], "n": 0, "ok": True, "grows": False, "done": 0,
              "span": 0.0} for _ in LADDER]
    cov_latencies, base_latencies, labels, n_cov = [], [], 0, 0
    hot = base = 0
    window = 0.0
    for start, records in ladders:
        late = [[] for _ in LADDER]
        last_done = [start + index * inputs.rung_s
                     for index in range(len(LADDER))]
        for slot, record in zip(inputs.slots, records):
            ok = record is not None and record[2]
            out.count(ok)
            rung = rungs[slot.rung]
            rung["n"] += 1
            if not ok:
                rung["ok"] = False
                continue
            sent, done, _, result, client, seq = record
            due = start + slot.due
            late[slot.rung].append((slot.due, sent - due))
            rung["done"] += 1
            last_done[slot.rung] = max(last_done[slot.rung], done)
            window = max(window, done - start)
            latency = done - due
            if slot.kind == "metrics":
                continue
            f1.add(result.predictions, slot.truth)
            kind = "cov" if slot.kind == "cov" else "base"
            op = {"type": kind, "latency_s": latency, "window": [sent, done],
                  "thread": client, "client": client, "seq": seq}
            if kind == "cov":
                op["keys"] = ["|".join(slot.request.problem.key)]
                cov_latencies.append(latency * 1e3)
                labels += result.labels_spent
                n_cov += 1
            else:
                base += 1
                hot += slot.kind == "hot"
                rung["base"].append(latency * 1e3)
                base_latencies.append(latency * 1e3)
            out.ops.append(op)
        for index, rung in enumerate(rungs):
            rung["grows"] |= _lateness_grows(late[index]) if late[index] \
                else True
            rung["span"] += last_done[index] - (start + index * inputs.rung_s)
    nominal = rungs[LADDER.index(NOMINAL)]
    out.metrics["base_p50_ms"] = measure.median(nominal["base"])
    value, pct, n = measure.tail(base_latencies)
    out.metrics["base_tail_ms"] = value
    out.properties["base_tail"] = {"percentile": pct, "samples": n}
    out.metrics["cov_p50_ms"] = measure.median(cov_latencies)
    value, pct, n = measure.tail(cov_latencies)
    out.metrics["cov_tail_ms"] = value
    out.properties["cov_tail"] = {"percentile": pct, "samples": n}
    max_rps = 0.0
    rung_rows = []
    for rate, rung in zip(LADDER, rungs):
        achieved = rung["done"] / rung["span"] if rung["span"] else 0.0
        tail_ms = measure.tail(rung["base"])[0]
        meets = rung["ok"] and tail_ms <= LATENCY_LIMIT_MS and not (
            rung["grows"])
        rung_rows.append({
            "rate": rate, "achieved_rps": achieved,
            "base_p50_ms": measure.median(rung["base"]),
            "base_tail_ms": tail_ms, "lateness_grows": bool(rung["grows"]),
            "meets_limit": bool(meets),
        })
        if meets:
            max_rps = achieved
    out.metrics["max_rps"] = max_rps
    out.properties["rungs"] = rung_rows
    out.metrics["probes_per_s"] = n_cov / (window * len(ladders))
    out.metrics["labels_per_probe"] = labels / max(n_cov, 1)
    out.metrics["f1"] = f1.value
    out.metrics["ok_ratio"] = (out.attempted - out.failed) / out.attempted
    out.properties["hot_repeat_share"] = hot / max(base, 1)
    out.properties["cov_requests"] = n_cov
    out.check("no failed operations", out.failed == 0, f"{out.failed}")
    out.check(f"f1 >= {F1_FLOOR}", f1.value >= F1_FLOOR, f"{f1.value:.4f}")
