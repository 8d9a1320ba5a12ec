#!/usr/bin/env python3
"""Alternating base/head perfbench pairs, written to ``BENCH_<workload>.json``.

    python scripts/bench_pairs.py --workload ingest --pairs 10 \\
        --first-seed 5001 --base HEAD

Runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``,
with ``N`` the ``run_seconds`` of ``BENCHMARK.json``, in two checkouts,
``--pairs`` times, one fresh seed per pair; pair ``i`` runs base first
when ``i`` is even and head first when it is odd, so a drift of the
shared host's speed does not favour either side. Each side is a git
revision exported with ``git archive`` into ``--workdir`` (a plain copy;
no worktree is registered); the default head is this working tree's
tracked files, staged or not (``git stash create``), so a new file must
be ``git add``-ed to take part. An exported copy is no git checkout, so
perfbench names it by the digest of its ``src/``.

The output records, per pair, both sides' end-to-end metrics, attempted
and failed operations and correctness; per metric whose direction
``BENCHMARK.json`` declares, each side's median and quartiles over the
pairs where both runs were correct, and the head's win count; and the
environment record of each side's first run. A speedup counts
(``claim`` in the summary) when the head wins at least nine tenths of
all pairs run, the medians differ by more than the base's interquartile
range, every head run was correct and the head failed no larger share
of its operations than the base. Exit code 0 when every run was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serve", "ingest"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seeds are first-seed, first-seed + 1, ...")
    parser.add_argument("--base", default="HEAD",
                        help="git revision (default HEAD)")
    parser.add_argument("--head", default=None,
                        help="git revision (default: this working tree)")
    parser.add_argument("--workdir", default=None,
                        help="where the sides are exported (default: a "
                             "temporary directory, removed afterwards)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<workload>.json "
                             "in this repository)")
    return parser.parse_args(argv)


def _git(*args):
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True).stdout


def _export(revision, workdir, name):
    """Export a git revision (``None``: the working tree) into
    ``workdir/name``."""
    if revision is None:
        revision = _git("stash", "create").decode().strip() or "HEAD"
    sha = _git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    target = os.path.join(workdir, name)
    os.makedirs(target)
    subprocess.run(["tar", "-x", "-C", target], input=_git("archive", sha),
                   check=True)
    return target


def _run(checkout, workload, seed, seconds):
    """One perfbench run: its operation counts, end-to-end metrics and
    environment record. A run that times out, exits without its result
    line or leaves no record is an incorrect run."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    path = os.path.join(checkout, "perfbench", "out",
                        f"{workload}-seed{seed}-trace0.json")
    if os.path.exists(path):
        os.remove(path)
    try:
        done = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=3600)
    except subprocess.TimeoutExpired as exc:
        return {"correct": False, "error": f"timed out after {exc.timeout} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        with open(path) as fh:
            record = json.load(fh)
    except (IndexError, json.JSONDecodeError, OSError):
        return {"correct": False, "exit_code": done.returncode,
                "stderr": done.stderr[-2000:]}
    return {
        "correct": bool(result.get("correct")),
        "exit_code": done.returncode,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "end_to_end": record["end_to_end"],
        "environment": record["environment"],
    }


def _benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _directions(spec):
    """metric name -> "lower" / "higher", from ``BENCHMARK.json``: the
    bounded end-to-end list, then the ``e2e.*`` per-layer entries that
    name the other end-to-end metrics."""
    better = {item["name"][len("e2e."):]: item["better"]
              for item in spec["per_layer"] if item["name"].startswith("e2e.")}
    better.update({item["name"]: item["better"] for item in spec["end_to_end"]})
    return better


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _failed_share(pairs, side):
    runs = [p[side] for p in pairs if p[side].get("attempted")]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] or 0 for run in runs) / attempted if attempted else 0.0


def summarise(pairs, better):
    """Per metric: both sides' spread and the head's wins."""
    summary = {}
    complete = [p for p in pairs if p["base"]["correct"] and p["head"]["correct"]]
    if len(complete) < 2:
        return summary
    head_sound = (all(p["head"]["correct"] for p in pairs)
                  and _failed_share(pairs, "head") <= _failed_share(pairs, "base"))
    for name, direction in sorted(better.items()):
        if any(name not in p[side]["end_to_end"]
               for p in complete for side in ("base", "head")):
            continue
        base = [p["base"]["end_to_end"][name] for p in complete]
        head = [p["head"]["end_to_end"][name] for p in complete]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        base_spread, head_spread = _spread(base), _spread(head)
        gap = sign * (base_spread["median"] - head_spread["median"])
        summary[name] = {
            "better": direction,
            "base": base_spread,
            "head": head_spread,
            "wins": wins,
            "pairs": len(pairs),
            "median_gain": gap,
            "claim": (head_sound and wins >= 0.9 * len(pairs)
                      and gap > base_spread["iqr"]),
        }
    return summary


def main(argv=None):
    args = _parse(argv)
    spec = _benchmark()
    seconds = spec["run_seconds"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")
    owns_workdir = args.workdir is None
    try:
        checkouts = {"base": _export(args.base, workdir, "base"),
                     "head": _export(args.head, workdir, "head")}
        pairs = []
        for index in range(args.pairs):
            seed = args.first_seed + index
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = _run(checkouts[side], args.workload, seed, seconds)
                print(f"pair {index + 1}/{args.pairs} seed {seed} {side}: "
                      f"correct={pair[side]['correct']}", file=sys.stderr)
            pairs.append(pair)
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    # Each side's first environment record; the pairs keep only metrics.
    environment = {}
    for pair in pairs:
        for side in ("base", "head"):
            record = pair[side].pop("environment", None)
            if record is not None:
                environment.setdefault(side, record)
    report = {
        "workload": args.workload,
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed SEED --seconds {seconds} --trace 0"),
        "seeds": [pair["seed"] for pair in pairs],
        "pairs": pairs,
        "summary": summarise(pairs, _directions(spec)),
        "environment": environment,
    }
    out = args.out or os.path.join(REPO, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, item in report["summary"].items():
        print(f"{name:>18}: base {item['base']['median']:.4g} "
              f"[{item['base']['q1']:.4g}, {item['base']['q3']:.4g}]  "
              f"head {item['head']['median']:.4g} "
              f"[{item['head']['q1']:.4g}, {item['head']['q3']:.4g}]  "
              f"wins {item['wins']}/{item['pairs']}"
              + ("  claim" if item["claim"] else ""))
    ok = all(pair[side]["correct"] for pair in pairs for side in ("base", "head"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
