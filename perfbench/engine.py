"""Run a workload (untraced, or untraced then traced) into one record."""

from __future__ import annotations

import gc
import importlib

from . import layers, measure, tracing
from .report import END_TO_END, UNBOUNDED


def _run_once(root, workdir, workload, seed, seconds, tracer):
    module = importlib.import_module(f"perfbench.{workload}")
    gc.collect()
    return module.run(root, workdir, seed, seconds, tracer)


def run(root, workdir, workload, seed, seconds, trace):
    """Returns ``{"result", "environment", "properties", "checks", ...}``;
    ``result`` is the JSON object the benchmark prints last."""
    environment = measure.environment(root, workdir)
    environment["seed"] = seed
    environment["seconds"] = seconds
    calibration = [measure.calibration_loop()]
    untraced = _run_once(root, workdir, workload, seed, seconds, None)
    record = {
        "workload": workload,
        "environment": environment,
        "end_to_end": untraced.metrics,
        "properties": untraced.properties,
        "checks": untraced.checks,
    }
    outcome = untraced
    if trace:
        calibration.append(measure.calibration_loop())
        tracer = tracing.install()
        try:
            traced = _run_once(root, workdir, workload, seed, seconds, tracer)
        finally:
            tracer.uninstall()
        per_layer, table = layers.compute(traced, tracer)
        for name, (_unit, better) in END_TO_END.items():
            # Positive: the traced run reads worse than the untraced one.
            value = untraced.metrics[name]
            worse = traced.metrics[name] - value
            if better == "higher":
                worse = -worse
            per_layer[f"overhead.{name}"] = 100.0 * worse / (value or 1.0)
        for name in UNBOUNDED:
            per_layer[f"e2e.{name}"] = untraced.metrics[name]
        record["traced_end_to_end"] = traced.metrics
        record["traced_properties"] = traced.properties
        record["self_time"] = table
        record["checks"] = untraced.checks + [
            (f"traced: {name}", ok, detail)
            for name, ok, detail in traced.checks
        ]
        metrics = {
            name: {"value": float(per_layer[name]),
                   "unit": layers.PER_LAYER[name]}
            for name in layers.PER_LAYER
        }
        outcome = traced
    else:
        metrics = {
            name: {"value": float(untraced.metrics[name]), "unit": unit}
            for name, (unit, _better) in END_TO_END.items()
            if name not in UNBOUNDED
        }
    calibration.append(measure.calibration_loop())
    environment["calibration_s"] = calibration
    correct = all(ok for _name, ok, _detail in record["checks"])
    record["result"] = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics if correct else {},
    }
    return record


def describe(record):
    """Human-readable report lines."""
    lines = [f"== perfbench {record['workload']} =="]
    env = record["environment"]
    lines.append(
        f"source {env['source']}  python {env['python']}  numpy "
        f"{env['numpy']}  nproc {env['nproc']}")
    lines.append(f"openblas {env['openblas']}  blas threads "
                 f"{env['blas_threads']}")
    lines.append(f"store/WAL filesystem {env['filesystem']}  seed "
                 f"{env['seed']}  seconds {env['seconds']}")
    lines.append("calibration loop (s): " + ", ".join(
        f"{value:.3f}" for value in env["calibration_s"]))
    lines.append("-- end-to-end (untraced) --")
    traced = record.get("traced_end_to_end")
    for name, (unit, _better) in END_TO_END.items():
        value = record["end_to_end"].get(name)
        line = f"  {name:<18} {value:>12.4f} {unit}"
        if traced is not None:
            line += f"   traced {traced[name]:.4f}"
        lines.append(line)
    lines.append("-- recorded properties --")
    for name, value in record["properties"].items():
        lines.append(f"  {name}: {value}")
    if "self_time" in record:
        lines.append("-- self time by layer (traced run, ms) --")
        lines.extend(layers.format_table(record["self_time"]))
        lines.append("-- per-layer metrics --")
        for name, item in record["result"]["metrics"].items():
            lines.append(f"  {name:<36} {item['value']:>14.4f} "
                         f"{item['unit']}")
    lines.append("-- checks --")
    for name, ok, detail in record["checks"]:
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name} {detail}")
    return lines
