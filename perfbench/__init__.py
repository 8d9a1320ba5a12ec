"""The MoRER benchmark: ``serve``, ``ingest`` and ``restart`` workloads.

Run one workload with ``python3 perfbench/run.py --workload serve``;
see ``perfbench/README.md`` for the metric definitions.
"""
