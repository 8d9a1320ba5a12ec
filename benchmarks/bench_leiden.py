"""Kernel bench: the CSR Leiden kernel vs the dict oracle.

The ER problem graph clusters with the CSR kernel in
:mod:`repro.graphcluster` on its array store; the dict-of-dicts code it
replaced is kept in ``tests/leiden_reference.py``. Both run here on the
same graphs: benchmark-shaped fit sets (six regimes, 16 to 160 pairs
per problem, ``tests.conftest.make_regime_problems``) of 160 problems,
the ``ingest`` fit, and 48 problems, the ``serve`` fit, built into an
:class:`~repro.core.graph.ERProblemGraph` with the KS test. The kernel
reads the graph's cached CSR view; the oracle reads ``to_graph()``, the
dict graph the problem graph used to hold.

Per size it times one full Leiden over five seeds and one
``ModularityAggregates.from_partition`` pass (what
``PartitionState.from_full_run`` pays after each full run), best of
``repeats``, and asserts identical communities (list order and set
iteration order) and identical aggregates. ``--smoke`` asserts that the
kernel is not slower at either size; the full run also asserts at least
2x on Leiden at 160 problems. On 2 shared vCPUs Leiden measured 4-7x
faster at 160 problems and 1.2-2.8x at 48, where a vertex has too few
neighbours for the per-vertex numpy calls to pay off much.
"""

import time

from repro.core.graph import ERProblemGraph
from repro.graphcluster import (
    ModularityAggregates,
    leiden,
    partition_from_communities,
)
from tests import leiden_reference as reference
from tests.conftest import make_regime_problems

#: Problems -> the full run's Leiden speedup floor.
SIZES = {160: 2.0, 48: 1.0}
SEEDS = (11, 12, 13, 14, 15)


def _best(repeats, func, *args):
    """Best-of-``repeats`` time of ``func(*args)`` and its last result."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = func(*args)
        times.append(time.perf_counter() - started)
    return min(times), result


def _leiden_runs(cluster, graph):
    return [cluster(graph, 1.0, seed) for seed in SEEDS]


def _aggregates(aggregates):
    return (aggregates.m, list(aggregates.intra.items()),
            list(aggregates.strength.items()))


def test_leiden_kernel_speedup(benchmark, smoke):
    repeats = 3 if smoke else 7

    def run():
        results = {}
        for n_problems in SIZES:
            graph = ERProblemGraph.build(
                make_regime_problems(n_problems, seed=n_problems), "ks"
            )
            csr, dict_graph = graph.csr(), graph.to_graph()
            kernel_s, kernel = _best(repeats, _leiden_runs, leiden, csr)
            reference_s, expected = _best(
                repeats, _leiden_runs, reference.leiden, dict_graph
            )
            partition = partition_from_communities(kernel[0])
            pass_s, aggregates = _best(
                repeats, ModularityAggregates.from_partition, csr, partition
            )
            reference_pass_s, expected_aggregates = _best(
                repeats, reference.from_partition, dict_graph, partition
            )
            results[n_problems] = {
                "edges": len(csr.indices) // 2,
                "communities": len(kernel[0]),
                "kernel_s": kernel_s / len(SEEDS),
                "reference_s": reference_s / len(SEEDS),
                "speedup": reference_s / kernel_s,
                "pass_s": pass_s,
                "reference_pass_s": reference_pass_s,
                "identical": (
                    [[list(c) for c in found] for found in kernel]
                    == [[list(c) for c in found] for found in expected]
                    and _aggregates(aggregates)
                    == _aggregates(expected_aggregates)
                ),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'Problems':>8} {'Edges':>7} {'Comm.':>6} {'Oracle (ms)':>12} "
          f"{'Kernel (ms)':>12} {'Speedup':>8} "
          f"{'Aggregates oracle/kernel (ms)':>30}")
    for n_problems, r in results.items():
        print(f"{n_problems:>8} {r['edges']:>7} {r['communities']:>6} "
              f"{r['reference_s'] * 1e3:>12.1f} {r['kernel_s'] * 1e3:>12.1f} "
              f"{r['speedup']:>7.1f}x "
              f"{r['reference_pass_s'] * 1e3:>17.2f} / {r['pass_s'] * 1e3:.2f}")

    for n_problems, r in results.items():
        assert r["identical"], n_problems
        assert r["speedup"] >= (1.0 if smoke else SIZES[n_problems]), (
            n_problems
        )
