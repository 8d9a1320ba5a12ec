"""Metric names and units, and the outcome record every workload fills."""

from __future__ import annotations

#: ``name -> (unit, better)``: what a user of the system sees. Every
#: workload measures every one (see README.md for the per-workload
#: definitions).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "base_p50_ms": ("ms", "lower"),
    "base_tail_ms": ("ms", "lower"),
    "cov_p50_ms": ("ms", "lower"),
    "cov_tail_ms": ("ms", "lower"),
    "max_rps": ("req/s", "higher"),
    "probes_per_s": ("1/s", "higher"),
    "labels_per_probe": ("labels", "lower"),
    "f1": ("ratio", "higher"),
    "fit_s": ("s", "lower"),
    "checkpoint_s": ("s", "lower"),
    "restart_s": ("s", "lower"),
    "recover_s": ("s", "lower"),
    "store_mb": ("MB", "lower"),
}

#: Measured, printed and recorded, but not in the untraced result: on a
#: shared 2-vCPU host whose speed dropped by up to 1.8x for minutes at a
#: time, these moved by more than the largest regression bound (0.25 of
#: the median) between sets of runs of the same code (README.md,
#: *Steadiness*). Traced runs report them among the per-layer metrics as
#: ``e2e.<name>``.
UNBOUNDED = ("base_p50_ms", "base_tail_ms", "cov_p50_ms", "cov_tail_ms",
             "max_rps", "probes_per_s", "fit_s", "checkpoint_s",
             "restart_s", "recover_s")


class Outcome:
    """What one workload run measured, checked and recorded."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.checks = []
        self.attempted = 0
        self.failed = 0
        #: Measured traffic properties and run facts (tail percentiles
        #: and sample counts, graph sizes, shares) recorded with the result.
        self.properties = {}
        #: Inputs for the per-layer metrics of a traced run: program
        #: counters, filesystem sizes, and span dumps of child processes.
        self.layer_context = {}
        self.child_spans = []
        #: One record per measured operation, for the self-time table:
        #: ``{"type", "latency_s", "window", "thread"}`` plus the request
        #: identity it has: ``"client"``/``"seq"`` over HTTP, and the
        #: ``"keys"`` of the problems a ``cov`` tick served.
        self.ops = []

    def check(self, name, ok, detail=""):
        """Record a correctness check; a check repeated (once per cycle)
        is kept once, failed if any repetition failed."""
        for index, (known, known_ok, _detail) in enumerate(self.checks):
            if known == name:
                if known_ok and not ok:
                    self.checks[index] = (name, False, str(detail))
                return
        self.checks.append((name, bool(ok), str(detail)))

    def count(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
