"""Per-layer metrics and the self-time table, computed from spans.

Layers are named after the modules whose public calls were wrapped
(:data:`perfbench.tracing.LAYER_CALLS`). A span's self time is its
duration minus what its children cover; a ``cov`` request's tick (which
runs on the scheduler thread) is attributed to every request it served
and nests under the request span that blocked on it, if any. Time of an
operation no span covers is reported as *unaccounted*.
"""

from __future__ import annotations

import bisect
import os

import numpy as np

from . import measure
from .report import END_TO_END, UNBOUNDED

SCHEDULER_THREAD = "morer-service-scheduler"

#: ``name -> unit`` of every per-layer metric, in report order.
PER_LAYER = {
    "client.overhead_ms.p50": "ms",
    "http.self_ms.p50": "ms",
    "http.requests_per_connection": "count",
    "http.errors_5xx": "count",
    "limiter.rejected": "count",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.tail": "ms",
    "service.ticks": "count",
    "service.batch_size.mean": "count",
    "service.tick_ms.p50": "ms",
    "service.tick_ms.tail": "ms",
    "rwlock.read_wait_ms.p50": "ms",
    "rwlock.read_wait_ms.tail": "ms",
    "rwlock.write_wait_ms.p50": "ms",
    "wal.append_ms.p50": "ms",
    "wal.fsyncs": "count",
    "wal.bytes_per_probe": "bytes",
    "wal.checkpoint_ms": "ms",
    "graph.integrate_ms_per_probe": "ms",
    "graph.pair_evals_per_probe": "count",
    "graph.build_s": "s",
    "graph.export_s": "s",
    "graph.restore_s": "s",
    "graphcluster.full_runs_per_tick": "count",
    "graphcluster.full_ms.p50": "ms",
    "partition_state.replays": "count",
    "partition_state.replay_ms.p50": "ms",
    "partition_state.accept_ratio": "ratio",
    "selection.decide_ms.p50": "ms",
    "selection.retrains": "count",
    "selection.new_models": "count",
    "bootstrap.select_s": "s",
    "ml.fit_s": "s",
    "repository.search_ms.p50": "ms",
    "repository.predict_ms.p50": "ms",
    "repository.save_s": "s",
    "repository.load_s": "s",
    "signatures.probe_hit_ratio": "ratio",
    "morer.save_s": "s",
    "morer.load_s": "s",
    "recovery.records": "count",
    "recovery.replay_s": "s",
    "atomic.store_bytes.graph": "bytes",
    "atomic.store_bytes.repository": "bytes",
    "atomic.store_bytes.meta": "bytes",
    "trace.unaccounted_share.base": "ratio",
    "trace.unaccounted_share.cov": "ratio",
}
for _name in UNBOUNDED:
    PER_LAYER[f"e2e.{_name}"] = END_TO_END[_name][0]
for _name in END_TO_END:
    PER_LAYER[f"overhead.{_name}"] = "%"


class Span:
    __slots__ = ("proc", "id", "parent", "name", "t0", "t1", "thread",
                 "attrs", "children")

    def __init__(self, proc, raw):
        (self.id, self.parent, self.name, self.t0, self.t1, self.thread,
         attrs) = raw
        self.proc = proc
        self.attrs = attrs or {}
        self.children = []

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Trace:
    """All spans of one traced run, across processes."""

    def __init__(self, tracer, child_spans):
        dumps = [("bench", {"spans": tracer.spans,
                            "probe_lookups": tracer.probe_lookups,
                            "probe_hits": tracer.probe_hits})]
        dumps += [(tag, dump) for tag, dump in child_spans if dump]
        self.spans = []
        self.probe_lookups = self.probe_hits = 0
        index = {}
        for proc, dump in dumps:
            self.probe_lookups += dump["probe_lookups"]
            self.probe_hits += dump["probe_hits"]
            for raw in dump["spans"]:
                span = Span(proc, raw)
                index[(proc, span.id)] = span
                self.spans.append(span)
        for span in self.spans:
            parent = index.get((span.proc, span.parent))
            span.parent = parent
            if parent is not None:
                parent.children.append(span)
        self.by_name = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)
        for spans in self.by_name.values():
            spans.sort(key=lambda span: span.t0)
        self.ticks = [
            span for span in self.named("morer.solve_batch")
            if span.thread == SCHEDULER_THREAD
        ]
        self._tick_of = {}
        for tick in self.ticks:
            for key in tick.attrs.get("keys", ()):
                self._tick_of.setdefault((tick.proc, key), []).append(tick)
        self._roots = {}
        for span in self.spans:
            if span.parent is None:
                self._roots.setdefault((span.proc, span.thread), []).append(
                    span)
        self._root_starts = {}
        for key, roots in self._roots.items():
            roots.sort(key=lambda span: span.t0)
            self._root_starts[key] = [span.t0 for span in roots]
        self.requests = {
            (span.attrs.get("client"), span.attrs.get("seq")): span
            for span in self.named("http.request")
            if span.proc.startswith("server")
        }

    def named(self, name):
        return self.by_name.get(name, [])

    def durations_ms(self, name):
        return [1e3 * span.dur for span in self.named(name)]

    def roots(self, proc, thread, start, end):
        """Top-level spans of one thread inside ``[start, end]``."""
        roots = self._roots.get((proc, thread), [])
        first = bisect.bisect_left(self._root_starts.get((proc, thread), []),
                                   start)
        return [span for span in roots[first:]
                if span.t0 <= end and span.t1 <= end]

    def tick_for(self, proc, key, after):
        for tick in self._tick_of.get((proc, key), ()):
            if tick.t0 >= after:
                return tick
        return None

    def tick_group(self, tick):
        """The tick's top-level scheduler spans: the write-lock wait and
        WAL append that precede its ``solve_batch``, and the batch."""
        before = self.roots(tick.proc, SCHEDULER_THREAD, tick.t0 - 0.5,
                            tick.t0)
        group = [tick]
        for span in reversed(before):
            if span is tick:
                continue
            if span.name not in ("rwlock.write_wait", "wal.append"):
                break
            group.append(span)
        return group


def _has_ancestor(span, predicate):
    parent = span.parent
    while parent is not None:
        if predicate(parent):
            return True
        parent = parent.parent
    return False


def _p50(values):
    return measure.median(values)


def _tail(values):
    return measure.tail(values)[0]


def compute(outcome, tracer):
    """``(per_layer_metrics, self_time_table)`` of one traced run."""
    trace = Trace(tracer, outcome.child_spans)
    context = outcome.layer_context
    m = {}

    overheads = []
    for span in trace.named("client.solve"):
        match = trace.requests.get(
            (span.attrs.get("client"), span.attrs.get("seq")))
        if match is not None:
            overheads.append(1e3 * (span.dur - match.dur))
    m["client.overhead_ms.p50"] = _p50(overheads)
    m["http.self_ms.p50"] = _p50([
        1e3 * (span.dur - sum(child.dur for child in span.children))
        for span in trace.named("http.request")
        if span.attrs.get("path") == "/solve"
    ])
    connections = len(trace.named("http.connection"))
    m["http.requests_per_connection"] = (
        len(trace.named("http.request")) / connections if connections else 0)
    m["http.errors_5xx"] = context.get("http_errors_5xx", 0)
    m["limiter.rejected"] = context.get("limiter_rejected", sum(
        1 for span in trace.named("limiter.check")
        if "error" in span.attrs))

    waits = []
    enqueues = [
        (span, [span.attrs["key"]]) for span in trace.named("service.submit")
        if span.attrs.get("key") and span.attrs.get("strategy") != "base"
    ] + [
        (span, span.attrs.get("keys", ()))
        for span in trace.named("service.solve_batch")
    ]
    for span, keys in enqueues:
        for key in keys:
            tick = trace.tick_for(span.proc, key, span.t0)
            if tick is not None:
                waits.append(1e3 * (tick.t0 - span.t0))
    m["service.queue_wait_ms.p50"] = _p50(waits)
    m["service.queue_wait_ms.tail"] = _tail(waits)
    ticks = trace.ticks
    m["service.ticks"] = len(ticks)
    m["service.batch_size.mean"] = float(np.mean(
        [len(t.attrs.get("keys", ())) for t in ticks])) if ticks else 0.0
    tick_ms = [1e3 * tick.dur for tick in ticks]
    m["service.tick_ms.p50"] = _p50(tick_ms)
    m["service.tick_ms.tail"] = _tail(tick_ms)

    reads = trace.durations_ms("rwlock.read_wait")
    m["rwlock.read_wait_ms.p50"] = _p50(reads)
    m["rwlock.read_wait_ms.tail"] = _tail(reads)
    m["rwlock.write_wait_ms.p50"] = _p50(trace.durations_ms(
        "rwlock.write_wait"))

    m["wal.append_ms.p50"] = _p50(trace.durations_ms("wal.append"))
    m["wal.fsyncs"] = context.get("wal_fsyncs", 0)
    m["wal.bytes_per_probe"] = context.get("wal_bytes", 0) / max(
        context.get("wal_probes", 0), 1)
    m["wal.checkpoint_ms"] = _p50(trace.durations_ms("wal.checkpoint"))

    inserts = [span for span in trace.named("graph.insert")
               if span.parent is None or span.parent.name != "graph.insert"]
    probes = sum(span.attrs.get("n", 0) for span in inserts)
    m["graph.integrate_ms_per_probe"] = (
        1e3 * sum(span.dur for span in inserts) / probes if probes else 0.0)
    m["graph.pair_evals_per_probe"] = (
        sum(span.attrs.get("evals", 0) for span in inserts) / probes
        if probes else 0.0)
    for metric, name in (("graph.build_s", "graph.build"),
                         ("graph.export_s", "graph.export"),
                         ("graph.restore_s", "graph.restore"),
                         ("repository.save_s", "repository.save"),
                         ("repository.load_s", "repository.load"),
                         ("morer.save_s", "morer.save"),
                         ("morer.load_s", "morer.load")):
        m[metric] = _p50([span.dur for span in trace.named(name)])

    def in_tick(span):
        return _has_ancestor(span, lambda parent: (
            parent.name == "morer.solve_batch"
            and parent.thread == SCHEDULER_THREAD))

    fulls = trace.named("graphcluster.full")
    m["graphcluster.full_runs_per_tick"] = (
        sum(1 for span in fulls if in_tick(span)) / len(ticks)
        if ticks else 0.0)
    m["graphcluster.full_ms.p50"] = _p50([1e3 * s.dur for s in fulls])
    replays = trace.named("partition_state.replay")
    m["partition_state.replays"] = len(replays)
    m["partition_state.replay_ms.p50"] = _p50([1e3 * s.dur for s in replays])
    m["partition_state.accept_ratio"] = (
        len(trace.named("partition_state.accept")) / len(replays)
        if replays else 0.0)
    decides = trace.named("selection.decide")
    m["selection.decide_ms.p50"] = _p50([1e3 * s.dur for s in decides])
    live = [span for span in decides if in_tick(span)]
    m["selection.retrains"] = sum(
        1 for span in live if span.attrs.get("retrained"))
    m["selection.new_models"] = sum(
        1 for span in live if span.attrs.get("new_model"))
    m["bootstrap.select_s"] = sum(s.dur for s in trace.named(
        "bootstrap.select"))
    m["ml.fit_s"] = sum(s.dur for s in trace.named("ml.fit"))
    m["repository.search_ms.p50"] = _p50(trace.durations_ms(
        "repository.search"))
    m["repository.predict_ms.p50"] = _p50(trace.durations_ms(
        "repository.predict"))
    m["signatures.probe_hit_ratio"] = (
        trace.probe_hits / trace.probe_lookups if trace.probe_lookups else 0)
    recovers = [span for span in trace.named("recovery.recover")
                if span.attrs.get("records")]
    m["recovery.records"] = _p50([s.attrs["records"] for s in recovers])
    m["recovery.replay_s"] = _p50([
        span.dur - sum(child.dur for child in span.children
                       if child.name == "recovery.load_snapshot")
        for span in recovers
    ])
    store = context.get("store")
    sizes = {"graph": 0, "repository": 0, "meta": 0}
    if store and os.path.isdir(store):
        for name in os.listdir(store):
            path = os.path.join(store, name)
            if name == "graph.npz":
                sizes["graph"] += os.path.getsize(path)
            elif os.path.isdir(path):
                sizes["repository"] += measure.dir_bytes(path)
            else:
                sizes["meta"] += os.path.getsize(path)
    for part, size in sizes.items():
        m[f"atomic.store_bytes.{part}"] = size

    table = self_time_table(trace, outcome.ops)
    for kind in ("base", "cov"):
        row = table.get(kind)
        m[f"trace.unaccounted_share.{kind}"] = (
            row["median_op"]["unaccounted_share"] if row else 0.0)
    return m, table


def _op_spans(trace, op):
    """The spans of one measured operation, with the parent each one
    has inside the operation (``None`` for its roots)."""
    start, end = op["window"]
    roots = trace.roots("bench", op["thread"], start, end)
    parents = {}

    def add(span, parent):
        parents[span] = parent
        for child in span.children:
            add(child, span)

    for root in roots:
        add(root, None)
    proc = "bench"
    if "client" in op:
        client = next((s for s in roots if s.name.startswith("client.")),
                      None)
        match = trace.requests.get((op["client"], op["seq"]))
        if match is not None:
            add(match, client)
            proc = match.proc
    for key in op.get("keys", ()):
        blocking = [span for span in parents if span.thread != (
            SCHEDULER_THREAD)]
        after = min((s.t0 for s in blocking if s.proc == proc),
                    default=start)
        tick = trace.tick_for(proc, key, after)
        if tick is None or tick in parents:
            continue
        for span in trace.tick_group(tick):
            holder = [s for s in blocking if s.proc == span.proc
                      and s.t0 <= span.t0 and s.t1 >= span.t1]
            add(span, max(holder, key=lambda s: s.t0) if holder else None)
    return parents


def _self_times(parents):
    layers = {}
    children = {}
    for span, parent in parents.items():
        if parent is not None:
            children.setdefault(parent, []).append(span)
    for span in parents:
        own = span.dur - sum(child.dur for child in children.get(span, ()))
        layers[span.layer] = layers.get(span.layer, 0.0) + max(own, 0.0)
    return layers


def self_time_table(trace, ops):
    """Per operation type: the median operation's self time by layer,
    the mean over all operations, and the unaccounted share."""
    table = {}
    by_type = {}
    for op in ops:
        by_type.setdefault(op["type"], []).append(op)
    for kind, group in by_type.items():
        rows = []
        for op in group:
            layers = _self_times(_op_spans(trace, op))
            latency = op["latency_s"]
            unaccounted = max(latency - sum(layers.values()), 0.0)
            rows.append((latency, layers, unaccounted))
        rows.sort(key=lambda row: row[0])
        latency, layers, unaccounted = rows[len(rows) // 2]
        names = sorted({name for _, row_layers, _ in rows
                        for name in row_layers})
        table[kind] = {
            "ops": len(rows),
            "median_op": {
                "latency_ms": 1e3 * latency,
                "layers_ms": {name: 1e3 * layers.get(name, 0.0)
                              for name in names},
                "unaccounted_ms": 1e3 * unaccounted,
                "unaccounted_share": unaccounted / latency if latency else 0,
            },
            "mean": {
                "latency_ms": 1e3 * float(np.mean([r[0] for r in rows])),
                "layers_ms": {name: 1e3 * float(np.mean(
                    [r[1].get(name, 0.0) for r in rows])) for name in names},
                "unaccounted_share": float(np.mean(
                    [r[2] / r[0] if r[0] else 0.0 for r in rows])),
            },
        }
    return table


def format_table(table):
    lines = []
    for kind, row in table.items():
        median_op, mean = row["median_op"], row["mean"]
        lines.append(
            f"  {kind}: {row['ops']} ops; median op {median_op['latency_ms']:.2f}"
            f" ms, mean {mean['latency_ms']:.2f} ms")
        for name in median_op["layers_ms"]:
            lines.append(
                f"    {name:<16} median-op {median_op['layers_ms'][name]:>9.3f}"
                f"   mean {mean['layers_ms'][name]:>9.3f}")
        lines.append(
            f"    {'unaccounted':<16} median-op "
            f"{median_op['unaccounted_ms']:>9.3f} "
            f"({100 * median_op['unaccounted_share']:.1f}%)   mean share "
            f"{100 * mean['unaccounted_share']:.1f}%")
    return lines
