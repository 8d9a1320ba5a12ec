"""Exact-equality oracle for the KS all-pairs kernel.

The two-branch kernel that :meth:`KolmogorovSmirnovTest.
signature_similarity_matrix` replaced: equal-size problem sets resolve
each row with one reshape, mixed sizes loop over every pair and
deflatten that pair's slice of the row's positions. It runs the same
integer counts and float operations as the merged-rank kernel, so the
two must agree bit for bit (``np.array_equal``), not to a tolerance.
"""

import numpy as np


def two_branch_similarity_matrix(test, signatures):
    """All-pairs KS ``sim_p`` matrix, computed the pre-merged-rank way."""
    n_problems = len(signatures)
    n_features = test._check_shared_feature_space(signatures)
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
    return test._aggregate_similarity_matrix(signatures, 1.0 - statistics)
