#!/usr/bin/env python3
"""Run one MoRER benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Workloads: ``serve`` and ``ingest`` (see perfbench/README.md).
With ``--trace 0`` the last stdout line is a JSON object whose
``metrics`` hold every end-to-end metric; with ``--trace 1`` the
workload runs untraced and then traced, and ``metrics`` hold every
per-layer metric, the unaccounted share and the tracing overhead. The
lines before it are a human-readable report; the same record (with the
environment and the recorded traffic properties) is written to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "ingest")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found next to perfbench/; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS thread per process: the host has two vCPUs shared by the
    # load generator and the server.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import engine

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record = engine.run(ROOT, workdir, args.workload, args.seed,
                            args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    for line in engine.describe(record):
        print(line)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
