"""Run ``repro serve`` with the benchmark's spans installed.

Usage: ``python perfbench/launcher.py SPANS_JSON serve-args...``. The
wrappers of :func:`perfbench.tracing.install` go in first, then
``repro.cli.main(["serve", ...])`` runs as usual; the spans are written
to ``SPANS_JSON`` when the server stops (SIGINT).
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    from perfbench import tracing

    tracer = tracing.install()
    from repro.cli import main

    try:
        main(["serve", *sys.argv[2:]])
    finally:
        tracer.dump(sys.argv[1])
