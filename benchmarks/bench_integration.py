"""Kernel bench: the all-pairs KS, WD and PSI kernels vs the full-tensor
code they replaced.

``ERProblemGraph.build`` compares every pair of initial problems through
the test's ``signature_similarity_matrix``, and every coalesced ``cov``
tick runs the same all-pairs kernel over its batch. The kernels fold similarity rows
into ``sim_p`` in constant-size blocks as they produce them; the code
they replaced built full (P, P, F) tensors first and is kept under
``tests/`` (``ks_reference.full_tensor_similarity_matrix``,
``matrix_reference.wasserstein_similarity_matrix`` and
``psi_similarity_matrix``). Both run here on benchmark-shaped regime sets
(six regimes, 16 to 160 pairs per problem,
``tests.conftest.make_regime_problems``) of P = 16 (the batch of a
16-probe ``ingest`` tick), 48 (the ``serve`` fit), 160 (the ``ingest``
fit) and 400 problems; the full run adds the ``ingest`` fit set itself
and dexter at scale 1.0.

Per set and test it reports the best-of-``repeats`` time and the traced
peak (tracemalloc, signatures warm) of kernel and reference, asserts
identical matrices (``np.array_equal``) and asserts the kernel's peak
within :func:`tests.matrix_reference.kernel_memory_bound`. It also
reports two design costs:

* the KS walk: a set whose merged support of all features fits
  ``_WALK_ELEMENTS`` walks them at once, as before (the 16-probe batch,
  the 48-problem fit); a larger one walks one feature at a time. The
  table times both ways at every P: one walk per feature makes F times
  the numpy calls;
* WD's quantile-grid chunk cap (``_GRID_CHUNK_ELEMENTS``, 8M values,
  ~64 MB): the largest gap chunk a size-group pair materializes at each
  P, and the time and peak with the cap lowered to the fold's block
  budget.

``--smoke`` runs P = 16, 48 and 160 with fewer repeats; every
assertion is about bits and bytes, none about time.
"""

import time

import numpy as np

from repro.core import ProblemSignature
from repro.core.distribution import (
    KolmogorovSmirnovTest,
    WassersteinTest,
    make_distribution_test,
)
from tests.conftest import make_regime_problems
from tests.ks_reference import full_tensor_similarity_matrix
from tests.matrix_reference import (
    kernel_memory_bound,
    psi_similarity_matrix,
    traced_peak,
    wasserstein_similarity_matrix,
)

REFERENCES = {
    "ks": full_tensor_similarity_matrix,
    "wd": wasserstein_similarity_matrix,
    "psi": psi_similarity_matrix,
}
SIZES = (16, 48, 160, 400)
SMOKE_SIZES = (16, 48, 160)


def _signatures(matrices):
    """Signatures with every statistic the kernels read computed."""
    signatures = [ProblemSignature(m) for m in matrices]
    for sig in signatures:
        sig.flat, sig.self_cdf, sig.stds, sig.histogram(100)
    return signatures


def _sets(smoke):
    sets = {
        f"P={n}": [p.features for p in make_regime_problems(n, seed=n)]
        for n in (SMOKE_SIZES if smoke else SIZES)
    }
    if not smoke:
        from perfbench.gen import Generator
        from perfbench.ingest import N_FIT, N_KNOWN, N_NOVEL
        from repro.datasets import load_benchmark

        sets["ingest fit"] = [
            p.features for p in Generator(1, N_KNOWN, N_NOVEL).known("F", N_FIT)
        ]
        _, _, split = load_benchmark("dexter", scale=1.0, random_state=0)
        sets["dexter 1.0"] = [p.features for p in split.initial]
    return sets


def _best(repeats, func, *args):
    """Best-of-``repeats`` time of ``func(*args)``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - started)
    return min(times)


def _compare(name, matrices, repeats):
    test = make_distribution_test(name)
    reference = REFERENCES[name]
    signatures = _signatures(matrices)
    test.signature_similarity_matrix(signatures)  # warm-up call
    kernel, kernel_peak = traced_peak(
        test.signature_similarity_matrix, signatures
    )
    expected, reference_peak = traced_peak(reference, test, signatures)
    kernel_s = reference_s = float("inf")
    for _ in range(repeats):  # alternate, so both see the same noise
        kernel_s = min(kernel_s, _best(
            1, test.signature_similarity_matrix, signatures
        ))
        reference_s = min(reference_s, _best(1, reference, test, signatures))
    return {
        "kernel_s": kernel_s,
        "reference_s": reference_s,
        "kernel_mb": kernel_peak / 1e6,
        "reference_mb": reference_peak / 1e6,
        "bound_mb": kernel_memory_bound(test, signatures) / 1e6,
        "identical": np.array_equal(kernel, expected),
    }


def _walk_cost(matrices, repeats):
    """KS walk time with all features in one walk vs one per walk."""
    signatures = _signatures(matrices)
    n_problems, n_features = len(signatures), signatures[0].n_features
    gaps = np.empty((n_problems, n_problems, n_features))
    walk = KolmogorovSmirnovTest._walk

    def grouped():
        walk(signatures, gaps)

    def per_feature():
        for feature in range(n_features):
            walk(signatures, gaps, feature)

    return _best(repeats, grouped), _best(repeats, per_feature)


def _largest_grid_chunk(test, signatures, cap):
    """Most gap values one chunk of WD's grid kernel holds."""
    by_size = {}
    for sig in signatures:
        by_size[sig.n_samples] = by_size.get(sig.n_samples, 0) + 1
    if len(by_size) == 1:
        return 0
    sizes = sorted(by_size)
    largest = 0
    for position, n_a in enumerate(sizes):
        for n_b in sizes[position:]:
            grid = test._merged_quantile_grid(n_a, n_b)[0].size
            per_row = by_size[n_b] * grid * signatures[0].n_features
            rows = min(by_size[n_a], max(1, cap // per_row))
            largest = max(largest, rows * per_row)
    return largest


def _grid_chunk(matrices, repeats):
    """WD at the grid cap as it is vs lowered to the fold budget."""
    signatures = _signatures(matrices)
    results = {}
    for label, cap in (("as is", WassersteinTest._GRID_CHUNK_ELEMENTS),
                       ("fold budget", WassersteinTest._BLOCK_ELEMENTS)):
        test = WassersteinTest()
        test._GRID_CHUNK_ELEMENTS = cap
        matrix = test.signature_similarity_matrix(signatures)
        _, peak = traced_peak(test.signature_similarity_matrix, signatures)
        results[label] = {
            "cap": cap,
            "largest_chunk": _largest_grid_chunk(test, signatures, cap),
            "seconds": _best(repeats, test.signature_similarity_matrix,
                             signatures),
            "mb": peak / 1e6,
            "matrix": matrix,
        }
    return results


def test_integration_kernels(benchmark, smoke):
    repeats = 2 if smoke else 5

    def run():
        results = {}
        for label, matrices in _sets(smoke).items():
            results[label] = {
                "n_problems": len(matrices),
                "tests": {
                    name: _compare(name, matrices, repeats)
                    for name in REFERENCES
                },
                "walk": _walk_cost(matrices, repeats),
                "grid": _grid_chunk(matrices, max(1, repeats // 2)),
            }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'Set':>11} {'Test':>4} {'Before (ms)':>12} {'After (ms)':>11} "
          f"{'Before (MB)':>12} {'After (MB)':>11} {'Bound (MB)':>11}")
    for label, r in results.items():
        for name, t in r["tests"].items():
            print(f"{label:>11} {name:>4} {t['reference_s'] * 1e3:>12.2f} "
                  f"{t['kernel_s'] * 1e3:>11.2f} {t['reference_mb']:>12.2f} "
                  f"{t['kernel_mb']:>11.2f} {t['bound_mb']:>11.2f}")
    print()
    print(f"{'Set':>11} {'KS walk, F at once (ms)':>24} "
          f"{'one feature per walk (ms)':>26}")
    for label, r in results.items():
        grouped, per_feature = r["walk"]
        print(f"{label:>11} {grouped * 1e3:>24.2f} {per_feature * 1e3:>26.2f}")
    print()
    print(f"{'Set':>11} {'WD grid cap':>12} {'Largest chunk':>14} "
          f"{'Time (ms)':>10} {'Peak (MB)':>10}")
    for label, r in results.items():
        for g in r["grid"].values():
            print(f"{label:>11} {g['cap']:>12,} {g['largest_chunk']:>14,} "
                  f"{g['seconds'] * 1e3:>10.2f} {g['mb']:>10.2f}")

    for label, r in results.items():
        for name, t in r["tests"].items():
            assert t["identical"], (label, name)
            assert t["kernel_mb"] <= t["bound_mb"], (label, name)
        grid = r["grid"]
        assert np.array_equal(
            grid["as is"]["matrix"], grid["fold budget"]["matrix"]
        ), label
