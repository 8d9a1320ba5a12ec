"""Exact-equality oracles for the WD and PSI all-pairs kernels, and the
aggregation all three all-pairs oracles share.

The code the ``signature_similarity_matrix`` kernels ran before they
folded similarity rows into ``sim_p`` as they were produced, kept
verbatim as functions of ``(test, signatures)``: each builds the full
(P, P, F) per-feature similarity tensor and aggregates it in one pass
(:func:`aggregate_similarity_matrix`). The helpers they called on the
test object are copied too (the quantile-grid kernel), so an oracle
reads only the signatures and the test's parameters, never the code it
checks. The kernels run the same float operations and the same
F-length reduction per pair, so they must agree bit for bit
(``np.array_equal``), not to a tolerance.
"""

import math

import numpy as np


def shared_feature_count(signatures):
    """The feature count every signature shares; raises otherwise."""
    n_features = {sig.n_features for sig in signatures}
    if len(n_features) > 1:
        raise ValueError(
            "ER problems must share the feature space "
            f"(got {sorted(n_features)} feature counts)"
        )
    return n_features.pop()


def _aggregate_rows(similarities, weights):
    """Batched std-weighted means over the trailing (feature) axis."""
    weights = np.array(weights, dtype=float, copy=True)
    weight_sums = weights.sum(axis=-1)
    constant = weight_sums <= 1e-12
    if np.any(constant):
        weights[constant] = 1.0
        weight_sums[constant] = weights.shape[-1]
    return (similarities * weights).sum(axis=-1) / weight_sums


def aggregate_similarity_matrix(signatures, similarities):
    """Fold a (P, P, F) per-feature similarity tensor into the ``sim_p``
    matrix with the symmetric std weights and a unit diagonal."""
    stds = np.stack([sig.stds for sig in signatures])
    weights = 0.5 * (stds[:, None, :] + stds[None, :, :])
    matrix = _aggregate_rows(similarities, weights)
    np.fill_diagonal(matrix, 1.0)
    return matrix


# -- WD ----------------------------------------------------------------------

#: Cap on the (rows_a, P_b, K, F) gap tensor a single chunk of the grid
#: kernel materializes (in float64 elements, ~64 MB).
GRID_CHUNK_ELEMENTS = 8_000_000


def _merged_quantile_grid(n_a, n_b):
    """``(widths, idx_a, idx_b)`` of the merged quantile-level grid."""
    lcm = (n_a // math.gcd(n_a, n_b)) * n_b
    step_a = lcm // n_a
    step_b = lcm // n_b
    edges = np.union1d(
        np.arange(step_a, lcm + 1, step_a, dtype=np.int64),
        np.arange(step_b, lcm + 1, step_b, dtype=np.int64),
    )
    starts = np.concatenate([[0], edges[:-1]])
    widths = np.diff(np.concatenate([[0], edges])) / lcm
    return widths, starts // step_a, starts // step_b


def _grid_distance_block(stacked_a, stacked_b, n_a, n_b):
    """W1 distances between two stacks of sorted columns, shape
    ``(P_a, P_b, F)``, via the merged quantile grid."""
    widths, idx_a, idx_b = _merged_quantile_grid(n_a, n_b)
    quantiles_a = stacked_a[:, idx_a, :]
    quantiles_b = stacked_b[:, idx_b, :]
    p_a = quantiles_a.shape[0]
    per_row = max(quantiles_b.size, 1)
    chunk = max(1, GRID_CHUNK_ELEMENTS // per_row)
    distances = np.empty(
        (p_a, quantiles_b.shape[0], stacked_a.shape[2])
    )
    for start in range(0, p_a, chunk):
        stop = min(start + chunk, p_a)
        gaps = np.abs(
            quantiles_a[start:stop, None, :, :]
            - quantiles_b[None, :, :, :]
        )
        distances[start:stop] = np.einsum("abkf,k->abf", gaps, widths)
    return distances


def wasserstein_similarity_matrix(test, signatures):
    """All-pairs WD ``sim_p`` matrix, computed the full-tensor way."""
    n_problems = len(signatures)
    n_features = shared_feature_count(signatures)
    similarities = np.ones((n_problems, n_problems, n_features))
    by_size = {}
    for i, signature in enumerate(signatures):
        by_size.setdefault(signature.n_samples, []).append(i)
    if len(by_size) == 1:
        stacked = np.stack([sig.sorted_columns for sig in signatures])
        for i in range(n_problems):
            distance = np.abs(stacked - stacked[i]).mean(axis=1)
            similarities[i] = 1.0 - np.minimum(distance, 1.0)
    else:
        stacks = {
            n_samples: np.stack(
                [signatures[i].sorted_columns for i in indices]
            )
            for n_samples, indices in by_size.items()
        }
        sizes = sorted(by_size)
        for position, n_a in enumerate(sizes):
            rows_a = by_size[n_a]
            for n_b in sizes[position:]:
                distance = _grid_distance_block(
                    stacks[n_a], stacks[n_b], n_a, n_b
                )
                block = 1.0 - np.minimum(distance, 1.0)
                rows_b = by_size[n_b]
                similarities[np.ix_(rows_a, rows_b)] = block
                similarities[np.ix_(rows_b, rows_a)] = (
                    block.transpose(1, 0, 2)
                )
    return aggregate_similarity_matrix(signatures, similarities)


# -- PSI ---------------------------------------------------------------------

def _proportions(test, signature):
    """Smoothed, renormalized bin proportions, shape (F, n_bins)."""
    prop = (
        signature.histogram(test.n_bins) / signature.n_samples
        + test.smoothing
    )
    return prop / prop.sum(axis=1, keepdims=True)


def psi_similarity_matrix(test, signatures):
    """All-pairs PSI ``sim_p`` matrix, computed the full-tensor way."""
    n_problems = len(signatures)
    n_features = shared_feature_count(signatures)
    props = np.stack([_proportions(test, sig) for sig in signatures])
    logs = np.log(props)
    similarities = np.empty((n_problems, n_problems, n_features))
    for i in range(n_problems):
        psi = np.sum((props[i] - props) * (logs[i] - logs), axis=2)
        similarities[i] = 1.0 / (1.0 + np.maximum(psi, 0.0))
    return aggregate_similarity_matrix(signatures, similarities)


# -- memory ------------------------------------------------------------------

def traced_peak(func, *args):
    """``(result, peak bytes)`` of ``func(*args)`` under tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = func(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def kernel_memory_bound(test, signatures):
    """The traced-memory bound of ``test.signature_similarity_matrix``
    on warm signatures, in bytes, derived from the kernels' design.

    Every kernel holds one fold block: the block (at most
    ``max(_BLOCK_ELEMENTS, P·F)`` values), its weights, the copy the
    weighted mean makes of them and their products, beside the P×P
    result. On top of that:

    * KS: the (P, P, F) gap array plus one walk, about ten arrays of
      its merged support: Σ n_i values, or F·Σ n_i when that fits
      ``_WALK_ELEMENTS``;
    * WD: the stacked sorted columns (the features once more), one
      gap-array-sized size-group block and the grid kernel's gathers
      of one size-group pair (about the features once more);
    * PSI: the (P, F, n_bins) proportions, their logs and two row
      buffers of that shape.

    A tenth on top and 64 KB cover numpy's small temporaries.
    """
    n_problems = len(signatures)
    n_features = signatures[0].n_features
    support = sum(sig.n_samples for sig in signatures)
    budget = test._BLOCK_ELEMENTS
    fold = 8 * (4 * max(budget, n_problems * n_features) + n_problems ** 2)
    gap_array = 8 * n_problems ** 2 * n_features
    features = 8 * support * n_features
    walked = support * n_features
    if walked > getattr(test, "_WALK_ELEMENTS", 0):
        walked = support
    working = {
        "ks": gap_array + 10 * 8 * walked,
        "wd": gap_array + 2 * features,
        "psi": 4 * 8 * n_problems * n_features * getattr(test, "n_bins", 0),
    }[test.name]
    return int(1.1 * (working + fold)) + 64 * 1024
