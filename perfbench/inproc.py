"""The paper's configuration and the in-process steps both workloads
share: the lifecycle each cycle measures, and closed-loop ``base``
solves."""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import repro.durability as durability
from repro.core import MoRER, MoRERConfig
from repro.service import MoRERService, SolveRequest

from . import measure


def config():
    """The paper's default configuration (Table 3) with ``sel_cov``."""
    return MoRERConfig(selection="cov")


#: Base solves alternate between a hot set of this many problems (the
#: same objects, so repeats can hit the probe-signature cache) and
#: fresh problems.
HOT_SET = 8

class CycleInputs:
    """What one cycle's lifecycle needs; every cycle of a run gets the
    same. ``tail`` holds the probes of each one-tick ``solve_batch``
    that forms the WAL tail."""

    def __init__(self, fit, tail, identity, restart_probe):
        self.fit = fit
        self.tail = tail
        self.identity = identity
        self.restart_probe = restart_probe


def base_probes(gen, n):
    """``n`` base probes: every other one repeats the hot set."""
    hot = gen.known("H", HOT_SET)
    fresh = gen.fork(3).stream("B", 12, 0)
    return [hot[i // 2 % HOT_SET] if i % 2 else next(fresh)[0]
            for i in range(n)]


def base_solves(solve, problems, f1):
    """Closed-loop ``base`` solves, one caller; returns
    ``(latencies_ms, windows)``. ``problems`` are labelled (the labels are
    the ground truth); each goes out as ``SolveRequest(problem, "base")``
    and ``base`` never reads labels."""
    latencies, windows = [], []
    for problem in problems:
        request = SolveRequest(problem, "base")
        started = time.perf_counter()
        response = solve(request)
        ended = time.perf_counter()
        latencies.append(1e3 * (ended - started))
        windows.append((started, ended))
        f1.add(response.predictions, problem.labels)
    return latencies, windows


def lifecycle(out, samples, workdir, inputs, started, during=None,
              check_recluster=True):
    """One cycle's set-up and operator lifecycle, on a state that is the
    same in every cycle:

    1. fit ``inputs.fit`` (``fit_s``), start a durable ``MoRERService``
       (WAL, ``fsync always``) and checkpoint it (``checkpoint_s``);
    2. ``during(service)``, if given;
    3. one one-tick ``solve_batch`` per entry of ``inputs.tail``;
    4. abandon the service unsaved, then ``recover()`` (``recover_s``);
       the recovered instance must match the live one;
    5. ``MoRER.load`` of the checkpoint plus one ``cov`` solve
       (``restart_s``). With ``check_recluster`` (above
       ``index_threshold``; below it every ``cov`` solve takes the full
       path by design) that solve must run no full recluster.

    ``started`` is when the cycle began generating its inputs. Returns
    ``(setup_seconds, recovered)``: set-up runs from ``started``
    through the checkpoint."""
    store = os.path.join(workdir, "store")
    wal_dir = os.path.join(workdir, "wal")
    for path in (store, wal_dir):
        shutil.rmtree(path, ignore_errors=True)
    morer = MoRER(config())
    began = time.perf_counter()
    morer.fit(inputs.fit)
    samples["fit_s"].append(time.perf_counter() - began)
    service = MoRERService(morer, wal_dir=wal_dir, fsync_policy="always")
    try:
        began = time.perf_counter()
        service.save(store)
        ended = time.perf_counter()
        samples["checkpoint_s"].append(ended - began)
        setup = ended - started
        samples["store_mb"].append(measure.dir_bytes(store) / 1e6)
        if during is not None:
            during(service)
        for probes in inputs.tail:
            service.solve_batch([SolveRequest(p, "cov") for p in probes])
    finally:
        service.close()
    began = time.perf_counter()
    recovered, _report = durability.recover(wal_dir, store=store)
    samples["recover_s"].append(time.perf_counter() - began)
    check_recovered(out, morer, recovered, inputs.identity)
    samples["restart_s"].append(timed_restart(
        out, store, inputs.restart_probe, check_recluster))
    return setup, recovered


def lifecycle_metrics(out, samples):
    """``setup_s`` and ``store_mb`` are medians over the cycles; each
    timed lifecycle step, identical work in every cycle, reports its
    fastest run (:func:`perfbench.measure.best`). Every sample is
    recorded."""
    out.metrics["setup_s"] = measure.median(samples["setup_s"])
    out.metrics["store_mb"] = measure.median(samples["store_mb"])
    for name in ("fit_s", "checkpoint_s", "recover_s", "restart_s"):
        out.metrics[name] = measure.best(samples[name])
    for name in ("setup_s", "fit_s", "checkpoint_s", "recover_s",
                 "restart_s"):
        out.properties[f"{name}_all"] = samples[name]


def check_recovered(out, live, recovered, probes):
    """The instance from ``recover()`` matches the live one: graph
    version, RNG state, and predictions on fresh probes."""
    out.check(
        "recovered graph version matches live",
        recovered.problem_graph.version == live.problem_graph.version,
        f"{recovered.problem_graph.version} vs "
        f"{live.problem_graph.version}")
    out.check(
        "recovered RNG state matches live",
        recovered._rng.bit_generator.state == live._rng.bit_generator.state)
    out.check(
        "recovered predictions match live on fresh probes",
        all(np.array_equal(
            live.solve(problem, strategy="base").predictions,
            recovered.solve(problem, strategy="base").predictions)
            for problem in probes))


def timed_restart(out, store, probe, check_recluster):
    """Seconds for ``MoRER.load`` plus the first ``cov`` solve answered."""
    started = time.perf_counter()
    loaded = MoRER.load(store)
    full = loaded.counters["full_reclusters"]
    result = loaded.solve(probe, strategy="cov")
    seconds = time.perf_counter() - started
    if check_recluster:
        out.check(
            "first cov solve after MoRER.load runs no full recluster",
            loaded.counters["full_reclusters"] == full,
            f"full_reclusters {full} -> {loaded.counters['full_reclusters']}")
    out.check("restart cov solve answered",
              len(result.predictions) == probe.n_pairs)
    return seconds


def wal_fsyncs(service):
    return measure.metric_total(service.metrics.render(),
                                "morer_wal_fsyncs_total")
