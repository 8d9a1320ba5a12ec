"""Exact-equality oracles for the KS all-pairs kernel.

Two kernels that :meth:`KolmogorovSmirnovTest.
signature_similarity_matrix` replaced, kept verbatim:

- :func:`two_branch_similarity_matrix` — equal-size problem sets
  resolve each row with one reshape, mixed sizes loop over every pair
  and deflatten that pair's slice of the row's positions;
- :func:`full_tensor_similarity_matrix` — the merged-rank kernel as it
  walked every feature at once and built the full (P, P, F) statistic
  tensor before aggregating it (the kernel bench times it as the
  before).

Both run the same integer counts and float operations as the kernel, so
they must agree with it bit for bit (``np.array_equal``), not to a
tolerance. Both aggregate their (P, P, F) tensor with the full-tensor
pass the kernels used before they folded rows as they produced them
(:func:`tests.matrix_reference.aggregate_similarity_matrix`), so no
oracle calls the code it checks.
"""

import numpy as np

from tests.matrix_reference import (
    aggregate_similarity_matrix,
    shared_feature_count,
)


def two_branch_similarity_matrix(test, signatures):
    """All-pairs KS ``sim_p`` matrix, computed the pre-merged-rank way."""
    n_problems = len(signatures)
    n_features = shared_feature_count(signatures)
    all_flat = np.concatenate([sig.flat for sig in signatures])
    sizes = [sig.n_samples for sig in signatures]
    uniform = len(set(sizes)) == 1
    bounds = np.cumsum([0] + [sig.flat.size for sig in signatures])
    if uniform:
        # Equal-size problems: one reshape handles every block.
        n_samples = sizes[0]
        self_cdfs = np.stack([sig.self_cdf.T for sig in signatures])
        column_offsets = (np.arange(n_features) * n_samples)[None, :, None]
    # gaps[i, j] = per-feature sup |F_i - F_j| over j's sample points.
    gaps = np.empty((n_problems, n_problems, n_features))
    for i, sig_i in enumerate(signatures):
        positions = sig_i.flat.searchsorted(all_flat, side="right")
        if uniform:
            cdf_i = (
                positions.reshape(n_problems, n_features, n_samples)
                - column_offsets
            ) / sig_i.n_samples
            gaps[i] = np.abs(cdf_i - self_cdfs).max(axis=2)
        else:
            for j, sig_j in enumerate(signatures):
                if j == i:
                    continue
                cdf_i_at_j = sig_i._deflatten(
                    positions[bounds[j]:bounds[j + 1]], sig_i.n_samples
                ) / sig_i.n_samples
                gaps[i, j] = np.abs(cdf_i_at_j - sig_j.self_cdf).max(axis=0)
        gaps[i, i] = 0.0
    statistics = np.maximum(gaps, gaps.transpose(1, 0, 2))
    return aggregate_similarity_matrix(signatures, 1.0 - statistics)


def full_tensor_similarity_matrix(test, signatures):
    """All-pairs KS ``sim_p`` matrix: one merged-rank walk over every
    feature, then the full (P, P, F) tensor aggregated in one pass."""
    n_problems = len(signatures)
    n_features = shared_feature_count(signatures)
    merged = np.concatenate([sig.flat for sig in signatures])
    order = merged.argsort(kind="stable")
    merged = merged[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    self_cdf = np.concatenate([sig.self_cdf.T.ravel() for sig in signatures])
    segments = np.repeat([sig.n_samples for sig in signatures], n_features)
    starts = np.cumsum(segments) - segments
    block = order.size // n_features
    counts = np.empty_like(order)
    cdf = np.empty(order.size)
    gaps = np.empty((n_problems, n_problems * n_features))
    for i, sig_i in enumerate(signatures):
        landed = merged.searchsorted(sig_i.flat, side="left")
        below = np.bincount(landed, minlength=order.size)
        below[block::block] -= sig_i.n_samples
        np.take(below.cumsum(out=below), rank, out=counts)
        np.divide(counts, sig_i.n_samples, out=cdf)
        np.abs(np.subtract(cdf, self_cdf, out=cdf), out=cdf)
        np.maximum.reduceat(cdf, starts, out=gaps[i])
    gaps = gaps.reshape(n_problems, n_problems, n_features)
    statistics = np.maximum(gaps, gaps.transpose(1, 0, 2))
    return aggregate_similarity_matrix(signatures, 1.0 - statistics)
