"""Dependency-free service observability: metrics + structured logs.

Two building blocks, both pure stdlib:

- :class:`MetricsRegistry` — monotonic :class:`Counter`\\ s,
  :class:`Gauge`\\ s and fixed-bucket :class:`Histogram`\\ s, rendered
  in the Prometheus text exposition format (version 0.0.4) for the
  gateway's ``GET /metrics`` endpoint. Every instrument is
  thread-safe; pull-time values (queue depth, WAL seq) are refreshed
  through collect callbacks registered with
  :meth:`MetricsRegistry.register_collect`.
- :class:`AccessLog` — JSON-lines structured request logging for the
  HTTP gateway (one object per line: timestamp, level, request id,
  client id, endpoint, status, latency).

:data:`SERVICE_METRIC_SPECS` is the single source of truth for every
series the serving stack exports — :class:`ServiceMetrics` builds its
instruments from it, and ``scripts/check_docs.py`` (the CI docs job)
asserts each name is documented in ``docs/OPERATIONS.md``. Keep the
literal pure (no computed values): the docs checker reads it with
``ast.literal_eval`` so it needs no runtime dependencies.
"""

from __future__ import annotations

import json
import sys
import threading
import time

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "AccessLog",
    "SERVICE_METRIC_SPECS",
    "DEFAULT_LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

#: Fixed latency buckets (seconds): 1 ms to 10 s in a 1-2.5-5 ladder —
#: wide enough for both sub-ms base solves and multi-second fit ticks.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Buckets for coalesced-batch sizes (requests per scheduler tick).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Every metric family the serving stack registers, as pure literals
#: (name, type, labels, help, optional histogram buckets). The CI docs
#: job parses this tuple out of the source with ``ast`` and fails when
#: a name here is missing from the OPERATIONS.md reference table.
SERVICE_METRIC_SPECS = (
    {"name": "morer_http_requests_total", "type": "counter",
     "labels": ("endpoint", "method", "status"),
     "help": "HTTP requests handled by the gateway, by endpoint, "
             "method and status code."},
    {"name": "morer_http_request_seconds", "type": "histogram",
     "labels": ("endpoint",),
     "buckets": (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                 0.5, 1.0, 2.5, 5.0, 10.0),
     "help": "Wall-clock request latency per endpoint, admission to "
             "last response byte."},
    {"name": "morer_http_rate_limited_total", "type": "counter",
     "labels": ("endpoint",),
     "help": "Requests rejected by per-client token-bucket admission "
             "control (HTTP 429 + Retry-After)."},
    {"name": "morer_solves_total", "type": "counter",
     "labels": ("strategy",),
     "help": "Completed solves by strategy (base = read-only search, "
             "cov = mutating integration)."},
    {"name": "morer_solve_decisions_total", "type": "counter",
     "labels": ("decision",),
     "help": "sel_cov outcomes: reuse (existing model served), "
             "retrain (cluster model updated), new_model (fresh "
             "cluster entry trained)."},
    {"name": "morer_scheduler_ticks_total", "type": "counter",
     "labels": (),
     "help": "Micro-batch scheduler ticks dispatched (one "
             "MoRER.solve_batch call each)."},
    {"name": "morer_scheduler_coalesced_requests_total",
     "type": "counter", "labels": (),
     "help": "cov requests served through scheduler ticks; divide by "
             "morer_scheduler_ticks_total for the mean coalescing "
             "ratio."},
    {"name": "morer_scheduler_tick_seconds", "type": "histogram",
     "labels": (),
     "buckets": (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                 0.5, 1.0, 2.5, 5.0, 10.0),
     "help": "Duration of one scheduler tick (WAL append + "
             "solve_batch + future resolution)."},
    {"name": "morer_scheduler_batch_size", "type": "histogram",
     "labels": (),
     "buckets": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
     "help": "Requests coalesced into each scheduler tick."},
    {"name": "morer_queue_depth", "type": "gauge", "labels": (),
     "help": "cov requests currently queued for the scheduler (not "
             "yet dispatched)."},
    {"name": "morer_queue_rejections_total", "type": "counter",
     "labels": ("reason",),
     "help": "Mutations rejected before execution: overloaded (queue "
             "full, HTTP 429) or unavailable (degraded durability, "
             "HTTP 503)."},
    {"name": "morer_wal_appends_total", "type": "counter",
     "labels": (),
     "help": "Records successfully appended to the write-ahead log."},
    {"name": "morer_wal_append_failures_total", "type": "counter",
     "labels": (),
     "help": "WAL append failures; any increment flips the service "
             "into degraded mode."},
    {"name": "morer_wal_append_seconds", "type": "histogram",
     "labels": (),
     "buckets": (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                 0.025, 0.05, 0.1, 0.25, 1.0),
     "help": "Duration of one WAL append including its per-policy "
             "fsync."},
    {"name": "morer_wal_fsyncs_total", "type": "counter", "labels": (),
     "help": "Physical fsync calls issued by the WAL (collected from "
             "the log; resets on restart)."},
    {"name": "morer_wal_fsync_seconds_total", "type": "counter",
     "labels": (),
     "help": "Cumulative seconds spent in WAL flush+fsync calls "
             "(collected from the log; resets on restart)."},
    {"name": "morer_wal_seq", "type": "gauge", "labels": (),
     "help": "Sequence number of the last successfully appended WAL "
             "record."},
    {"name": "morer_checkpoints_total", "type": "counter",
     "labels": ("outcome",),
     "help": "Snapshot checkpoints by outcome (ok / failed). Repeated "
             "failures degrade the service."},
    {"name": "morer_checkpoint_seconds", "type": "histogram",
     "labels": (),
     "buckets": (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                 10.0, 30.0),
     "help": "Duration of one checkpoint (atomic snapshot + WAL "
             "truncation)."},
    {"name": "morer_degraded", "type": "gauge", "labels": (),
     "help": "1 while the service is degraded (mutations rejected "
             "with 503), else 0."},
    {"name": "morer_degraded_transitions_total", "type": "counter",
     "labels": (),
     "help": "Times the service entered degraded mode since start."},
    {"name": "morer_repository_entries", "type": "gauge", "labels": (),
     "help": "Model entries in the served repository."},
    {"name": "morer_graph_problems", "type": "gauge", "labels": (),
     "help": "Problems in the ER problem graph."},
    {"name": "morer_labels_spent", "type": "gauge", "labels": (),
     "help": "Total labelling-oracle queries spent (fit + "
             "retraining)."},
)


def _format_value(value):
    """Prometheus sample value: integers without a trailing ``.0``."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(names, values, extra=()):
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    pairs.extend(f'{name}="{value}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _MetricFamily:
    """Shared label handling + per-family lock of every instrument."""

    kind = None

    def __init__(self, name, help_text, labelnames=()):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series = {}

    def _key(self, labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _header(self, out):
        out.append(f"# HELP {self.name} {self.help}")
        out.append(f"# TYPE {self.name} {self.kind}")


class Counter(_MetricFamily):
    """Monotonic counter; decrements are a programming error."""

    kind = "counter"

    def __init__(self, name, help_text, labelnames=()):
        super().__init__(name, help_text, labelnames)
        if not self.labelnames:
            self._series[()] = 0.0

    def inc(self, amount=1.0, **labels):
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_total(self, value, **labels):
        """Pull-through for counters whose source of truth lives
        elsewhere (e.g. the WAL's fsync count): adopts ``value`` but
        never moves backwards, preserving counter semantics."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = max(self._series.get(key, 0.0),
                                    float(value))

    def value(self, **labels):
        with self._lock:
            return self._series.get(self._key(labels), 0.0)

    def render(self, out):
        self._header(out)
        with self._lock:
            series = sorted(self._series.items())
        for key, value in series:
            labels = _render_labels(self.labelnames, key)
            out.append(f"{self.name}{labels} {_format_value(value)}")


class Gauge(_MetricFamily):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help_text, labelnames=()):
        super().__init__(name, help_text, labelnames)
        if not self.labelnames:
            self._series[()] = 0.0

    def set(self, value, **labels):
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def value(self, **labels):
        with self._lock:
            return self._series.get(self._key(labels), 0.0)

    def render(self, out):
        self._header(out)
        with self._lock:
            series = sorted(self._series.items())
        for key, value in series:
            labels = _render_labels(self.labelnames, key)
            out.append(f"{self.name}{labels} {_format_value(value)}")


class Histogram(_MetricFamily):
    """Fixed-bucket histogram: cumulative counts + sum + count."""

    kind = "histogram"

    def __init__(self, name, help_text, buckets=DEFAULT_LATENCY_BUCKETS,
                 labelnames=()):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        if not self.labelnames:
            self._series[()] = self._new_series()

    def _new_series(self):
        return {"counts": [0] * len(self.buckets), "sum": 0.0,
                "count": 0}

    def observe(self, value, **labels):
        value = float(value)
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._new_series()
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][i] += 1
            series["sum"] += value
            series["count"] += 1

    def snapshot(self, **labels):
        """(cumulative bucket counts, sum, count) for tests."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key) or self._new_series()
            return (tuple(series["counts"]), series["sum"],
                    series["count"])

    def render(self, out):
        self._header(out)
        with self._lock:
            series = sorted(
                (key, [list(s["counts"]), s["sum"], s["count"]])
                for key, s in self._series.items()
            )
        for key, (counts, total, count) in series:
            for bound, cumulative in zip(self.buckets, counts):
                labels = _render_labels(
                    self.labelnames, key,
                    extra=(("le", _format_value(bound)),),
                )
                out.append(f"{self.name}_bucket{labels} {cumulative}")
            inf_labels = _render_labels(self.labelnames, key,
                                        extra=(("le", "+Inf"),))
            out.append(f"{self.name}_bucket{inf_labels} {count}")
            labels = _render_labels(self.labelnames, key)
            out.append(f"{self.name}_sum{labels} {_format_value(total)}")
            out.append(f"{self.name}_count{labels} {count}")


class MetricsRegistry:
    """An ordered set of metric families plus collect callbacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}
        self._collectors = []

    def _register(self, family):
        with self._lock:
            if family.name in self._families:
                raise ValueError(
                    f"metric {family.name} is already registered"
                )
            self._families[family.name] = family
        return family

    def counter(self, name, help_text, labelnames=()):
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name, help_text, labelnames=()):
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(self, name, help_text,
                  buckets=DEFAULT_LATENCY_BUCKETS, labelnames=()):
        return self._register(
            Histogram(name, help_text, buckets, labelnames)
        )

    def register_collect(self, fn):
        """Run ``fn()`` at the start of every :meth:`render` — the
        hook for pull-time values (queue depth, WAL seq)."""
        with self._lock:
            self._collectors.append(fn)

    def names(self):
        """Registered family names, in registration order."""
        with self._lock:
            return list(self._families)

    def render(self):
        """The Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            collectors = list(self._collectors)
            families = list(self._families.values())
        for fn in collectors:
            try:
                fn()
            except Exception:  # noqa: BLE001 - a scrape must not 500
                pass
        out = []
        for family in families:
            family.render(out)
        return "\n".join(out) + "\n"


class ServiceMetrics:
    """Every instrument of :data:`SERVICE_METRIC_SPECS`, built on one
    registry and exposed as attributes (spec name minus the ``morer_``
    prefix: ``metrics.http_requests_total`` and so on)."""

    def __init__(self):
        self.registry = MetricsRegistry()
        for spec in SERVICE_METRIC_SPECS:
            kind = spec["type"]
            if kind == "counter":
                instrument = self.registry.counter(
                    spec["name"], spec["help"], spec["labels"]
                )
            elif kind == "gauge":
                instrument = self.registry.gauge(
                    spec["name"], spec["help"], spec["labels"]
                )
            elif kind == "histogram":
                instrument = self.registry.histogram(
                    spec["name"], spec["help"], spec["buckets"],
                    spec["labels"],
                )
            else:  # pragma: no cover - specs are literals
                raise ValueError(f"unknown metric type {kind!r}")
            setattr(self, spec["name"][len("morer_"):], instrument)

    def register_collect(self, fn):
        self.registry.register_collect(fn)

    def render(self):
        return self.registry.render()


class AccessLog:
    """JSON-lines structured logging for the HTTP gateway.

    One JSON object per line: ``ts`` (epoch seconds), ``level``, and
    whatever fields the caller passes (request id, client id, endpoint,
    status, latency). Levels: ``off`` < ``info`` < ``debug`` — the
    gateway logs one line per request at ``info``; a ``debug`` record
    is written only by a log at ``debug`` level.

    Writes are serialised under a lock and failures are swallowed:
    logging must never fail a request.

    ``clock`` (default :func:`time.time`) supplies the ``ts`` field —
    inject a fake for deterministic log fixtures and replay tests.
    """

    LEVELS = {"off": 0, "info": 1, "debug": 2}

    def __init__(self, stream=None, path=None, level="info",
                 clock=time.time):
        if level not in self.LEVELS:
            raise ValueError(
                f"unknown access-log level {level!r}; choose from "
                f"{sorted(self.LEVELS)}"
            )
        self.level = level
        self._clock = clock
        self._owns_fh = path is not None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")
        else:
            self._fh = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def enabled_for(self, level):
        return self.LEVELS[self.level] >= self.LEVELS.get(level, 99)

    def log(self, level, **fields):
        if not self.enabled_for(level):
            return
        record = {"ts": round(self._clock(), 6), "level": level}
        record.update(fields)
        try:
            line = json.dumps(record, separators=(",", ":"),
                              default=str)
            with self._lock:
                self._fh.write(line + "\n")
                self._fh.flush()
        except (OSError, ValueError):
            pass

    def info(self, **fields):
        self.log("info", **fields)

    def debug(self, **fields):
        self.log("debug", **fields)

    def close(self):
        if self._owns_fh:
            try:
                self._fh.close()
            except OSError:
                pass
