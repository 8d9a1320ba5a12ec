"""Similarity distribution analysis between ER problems (§4.2).

Implements the four tests the paper evaluates (Fig. 6):

* **KS** — Kolmogorov–Smirnov statistic on feature CDFs (Eq. 1),
* **WD** — Wasserstein-1 distance between feature CDFs (Eq. 2),
* **PSI** — population stability index over binned features (Eq. 3),
* **C2ST** — multivariate classifier two-sample test (Lopez-Paz &
  Oquab 2016): ``sim_p`` is the inverse F1 of a classifier trying to
  tell the two problems apart.

Distances are mapped to similarities in ``[0, 1]``: ``1 − KS``,
``1 − WD`` (W1 ≤ 1 because features live on the unit interval) and
``1 / (1 + PSI)`` (PSI is unbounded). Univariate per-feature
similarities are aggregated into the problem similarity ``sim_p`` as a
weighted mean, weighted by feature standard deviation (the paper's
discriminative-power proxy).

Every test offers two equivalent entry points:

* ``problem_similarity(features_a, features_b)`` — the reference
  raw-matrix path, recomputing everything per call;
* ``signature_similarity(sig_a, sig_b)`` — the fast path over
  precomputed :class:`~repro.core.signatures.ProblemSignature` objects,
  evaluating all features at once with vectorized numpy kernels. The
  two agree to well below 1e-9 on any input.
"""

from __future__ import annotations

import math

import numpy as np

from ..ml.utils import check_random_state, unique_classes

__all__ = [
    "KolmogorovSmirnovTest",
    "WassersteinTest",
    "PopulationStabilityTest",
    "ClassifierTwoSampleTest",
    "DISTRIBUTION_TESTS",
    "make_distribution_test",
    "problem_similarity",
]


class _UnivariateTest:
    """Base class: per-feature similarity + std-weighted aggregation."""

    name = "univariate"
    #: ``sim_p(a, b) == sim_p(b, a)`` — lets callers memoize pairs
    #: under an order-normalized key.
    symmetric = True

    def feature_similarity(self, values_a, values_b):
        """Similarity in [0, 1] of two 1-d samples; overridden."""
        raise NotImplementedError

    def problem_similarity(self, features_a, features_b):
        """Weighted-mean feature similarity ``sim_p`` of two problems.

        Features are weighted by the mean of their standard deviations
        in the two problems; when every feature is constant the weights
        fall back to uniform.
        """
        features_a = np.asarray(features_a, dtype=float)
        features_b = np.asarray(features_b, dtype=float)
        if features_a.ndim != 2 or features_b.ndim != 2:
            raise ValueError("feature matrices must be 2-d")
        if features_a.shape[1] != features_b.shape[1]:
            raise ValueError(
                "ER problems must share the feature space "
                f"({features_a.shape[1]} vs {features_b.shape[1]} features)"
            )
        n_features = features_a.shape[1]
        similarities = np.empty(n_features)
        for f in range(n_features):
            similarities[f] = self.feature_similarity(
                features_a[:, f], features_b[:, f]
            )
        weights = 0.5 * (features_a.std(axis=0) + features_b.std(axis=0))
        return _aggregate(similarities, weights)

    def signature_similarity(self, signature_a, signature_b):
        """``sim_p`` from two precomputed problem signatures.

        Equivalent to :meth:`problem_similarity` on the underlying
        matrices, but every per-feature statistic comes from the cached
        signature and all features are evaluated in one vectorized
        kernel (no Python loop).
        """
        if signature_a.n_features != signature_b.n_features:
            raise ValueError(
                "ER problems must share the feature space "
                f"({signature_a.n_features} vs {signature_b.n_features} "
                "features)"
            )
        similarities = self._signature_feature_similarities(
            signature_a, signature_b
        )
        weights = 0.5 * (signature_a.stds + signature_b.stds)
        return _aggregate(similarities, weights)

    def _signature_feature_similarities(self, signature_a, signature_b):
        """Vectorized per-feature similarities; overridden per test."""
        return np.array([
            self.feature_similarity(
                signature_a.features[:, f], signature_b.features[:, f]
            )
            for f in range(signature_a.n_features)
        ])

    def signature_similarity_many(self, probe, signatures):
        """``sim_p`` of one probe signature against many candidates.

        One batched pass: per-feature similarities come from the same
        vectorized kernels as :meth:`signature_similarity` (stacked per
        candidate, or fully batched where the test overrides
        ``_signature_feature_similarities_many``) and the std-weighted
        aggregation runs once over the whole candidate block. Agrees
        with per-candidate :meth:`signature_similarity` to well below
        1e-9.
        """
        signatures = list(signatures)
        if not signatures:
            return np.empty(0)
        for signature in signatures:
            if signature.n_features != probe.n_features:
                raise ValueError(
                    "ER problems must share the feature space "
                    f"({probe.n_features} vs {signature.n_features} "
                    "features)"
                )
        similarities = self._signature_feature_similarities_many(
            probe, signatures
        )
        stds = np.stack([sig.stds for sig in signatures])
        weights = 0.5 * (probe.stds[None, :] + stds)
        return _aggregate_rows(similarities, weights)

    def _signature_feature_similarities_many(self, probe, signatures):
        """Per-feature similarity rows, shape (n_candidates, n_features);
        tests override this with a fully batched kernel."""
        return np.stack([
            self._signature_feature_similarities(probe, signature)
            for signature in signatures
        ])

    def _check_shared_feature_space(self, signatures):
        n_features = {sig.n_features for sig in signatures}
        if len(n_features) > 1:
            raise ValueError(
                "ER problems must share the feature space "
                f"(got {sorted(n_features)} feature counts)"
            )
        return n_features.pop()

    #: The fold's block budget, in float64 values (64 KB): the
    #: all-pairs kernels hand it their rows in blocks of
    #: ``max(1, this // (P·F))`` rows, whatever P is.
    _BLOCK_ELEMENTS = 8_192

    def _fold_similarity_matrix(self, signatures, blocks):
        """Shared tail of every ``signature_similarity_matrix``: fold
        per-feature similarity blocks into the P×P ``sim_p`` matrix as
        the kernel produces them, so no (P, P, F) tensor is needed.

        ``blocks`` yields ``(rows, cols, similarities)``: the
        per-feature similarities of the pairs ``rows × cols``, shape
        ``(rows, cols, F)``, each block aggregated at once with the
        symmetric std weights. Full rows come as a slice of rows with
        ``cols`` ``None`` (every column). Any other block has index
        arrays for both and is mirrored into ``matrix[cols, rows]``:
        each per-feature similarity of a univariate test is symmetric
        bit for bit, and so is each pair's weighted mean over its F
        features. The diagonal is 1.
        """
        stds = np.stack([sig.stds for sig in signatures])
        matrix = np.empty((len(signatures), len(signatures)))
        for rows, cols, similarities in blocks:
            if cols is None:
                weights = 0.5 * (stds[rows, None, :] + stds[None, :, :])
                matrix[rows] = _aggregate_rows(similarities, weights)
            else:
                weights = 0.5 * (stds[rows][:, None, :] + stds[cols][None, :, :])
                values = _aggregate_rows(similarities, weights)
                matrix[np.ix_(rows, cols)] = values
                matrix[np.ix_(cols, rows)] = values.T
        np.fill_diagonal(matrix, 1.0)
        return matrix

    def _row_blocks(self, n_problems, n_features, fill):
        """Full-row fold blocks: ``fill(start, stop, out)`` writes the
        (P, F) per-feature similarities of problems ``start..stop`` into
        ``out``, one reused block of at most :attr:`_BLOCK_ELEMENTS`
        values (or one row)."""
        step = max(1, self._BLOCK_ELEMENTS // (n_problems * n_features))
        block = np.empty((min(step, n_problems), n_problems, n_features))
        for start in range(0, n_problems, step):
            stop = min(start + step, n_problems)
            fill(start, stop, block[:stop - start])
            yield slice(start, stop), None, block[:stop - start]


def _aggregate(similarities, weights):
    """Std-weighted mean with the uniform fallback for constant data."""
    if weights.sum() <= 1e-12:
        weights = np.ones(len(similarities))
    return float(np.dot(similarities, weights) / weights.sum())


def _aggregate_rows(similarities, weights):
    """Batched std-weighted means over the trailing (feature) axis.

    ``similarities`` and ``weights`` share their shape; rows whose
    weights all vanish (constant data) fall back to a uniform mean,
    mirroring :func:`_aggregate`.
    """
    weights = np.array(weights, dtype=float, copy=True)
    weight_sums = weights.sum(axis=-1)
    constant = weight_sums <= 1e-12
    if np.any(constant):
        weights[constant] = 1.0
        weight_sums[constant] = weights.shape[-1]
    return (similarities * weights).sum(axis=-1) / weight_sums


class KolmogorovSmirnovTest(_UnivariateTest):
    """``sim = 1 − sup |CDF_a − CDF_b|`` (Eq. 1)."""

    name = "ks"

    def feature_similarity(self, values_a, values_b):
        """One minus the two-sample KS statistic."""
        a = np.sort(np.asarray(values_a, dtype=float))
        b = np.sort(np.asarray(values_b, dtype=float))
        if a.size == 0 or b.size == 0:
            raise ValueError("empty sample in KS test")
        support = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, support, side="right") / a.size
        cdf_b = np.searchsorted(b, support, side="right") / b.size
        statistic = float(np.max(np.abs(cdf_a - cdf_b)))
        return 1.0 - statistic

    def _signature_feature_similarities(self, signature_a, signature_b):
        # The KS supremum over the merged support splits into the
        # suprema over each sample's own points; the self-CDFs are
        # precomputed, so each pair costs two flat searchsorted calls.
        cdf_b_at_a = signature_b.cdf_at(signature_a)
        cdf_a_at_b = signature_a.cdf_at(signature_b)
        gap_at_a = np.abs(signature_a.self_cdf - cdf_b_at_a).max(axis=0)
        gap_at_b = np.abs(cdf_a_at_b - signature_b.self_cdf).max(axis=0)
        return 1.0 - np.maximum(gap_at_a, gap_at_b)

    def _signature_feature_similarities_many(self, probe, signatures):
        # One searchsorted resolves the probe's CDF at every candidate's
        # support points (their concatenated flats); only the reverse
        # direction needs one call per candidate, because each candidate
        # has its own sorted support.
        all_flat = np.concatenate([sig.flat for sig in signatures])
        positions = probe.flat.searchsorted(all_flat, side="right")
        bounds = np.cumsum([0] + [sig.flat.size for sig in signatures])
        rows = np.empty((len(signatures), probe.n_features))
        for j, signature in enumerate(signatures):
            cdf_probe_at_j = probe._deflatten(
                positions[bounds[j]:bounds[j + 1]], probe.n_samples
            ) / probe.n_samples
            gap_at_j = np.abs(
                cdf_probe_at_j - signature.self_cdf
            ).max(axis=0)
            gap_at_probe = np.abs(
                probe.self_cdf - signature.cdf_at(probe)
            ).max(axis=0)
            rows[j] = 1.0 - np.maximum(gap_at_j, gap_at_probe)
        return rows

    #: Most merged support points the all-pairs walk sorts at once: a
    #: set whose support of all features fits walks them together (a
    #: coalesced batch: as few numpy calls as one feature), a larger set
    #: one feature at a time (a fit: F-fold smaller walk arrays).
    _WALK_ELEMENTS = 32_768

    def signature_similarity_matrix(self, signatures):
        """All-pairs ``sim_p`` over a list of signatures in one pass.

        One merged-rank kernel serves every mix of sample sizes: a walk
        (:meth:`_walk`) fills the gap array, over all features at once
        when their merged support fits :attr:`_WALK_ELEMENTS`, else one
        walk per feature. The fold then aggregates the gap array's rows
        block by block. The integers and float operations are those of
        :meth:`signature_similarity`, so results are bit-identical.

        Working memory: the gap array (8·P²·F bytes; the statistic
        ``max(g_ij, g_ji)`` needs both orientations), one walk's arrays
        (about ten over its merged support: Σ n_i values for one
        feature, at most :attr:`_WALK_ELEMENTS` for all; released after
        each walk), and one fold block.
        """
        n_problems = len(signatures)
        n_features = self._check_shared_feature_space(signatures)
        # gaps[i, j, f] = sup |F_i - F_j| over j's points of feature f.
        gaps = np.empty((n_problems, n_problems, n_features))
        support = sum(sig.n_samples for sig in signatures)
        if support * n_features <= self._WALK_ELEMENTS:
            self._walk(signatures, gaps)
        else:
            for feature in range(n_features):
                self._walk(signatures, gaps, feature)

        def fill(start, stop, out):
            np.maximum(
                gaps[start:stop], gaps[:, start:stop].transpose(1, 0, 2),
                out=out,
            )
            np.subtract(1.0, out, out=out)

        return self._fold_similarity_matrix(
            signatures, self._row_blocks(n_problems, n_features, fill)
        )

    @staticmethod
    def _walk(signatures, gaps, feature=None):
        """Fill ``gaps`` (every feature, or ``gaps[:, :, feature]``)
        with one merged-rank walk.

        The walked support points of all problems (their flats, or each
        flat's ``feature`` segment, concatenated) are stably sorted once
        into ``merged``. Per problem ``i``, a bincount of where its own
        points land in ``merged`` and a running sum count ``i``'s values
        at or below every support point (the integers of a right-sided
        ``searchsorted``), gathered back to concatenated order through
        the inverse permutation. Dividing by ``n_i``, subtracting the
        self-CDFs and one ``maximum.reduceat`` over the (problem,
        feature) segments fill row ``i`` with a fixed number of numpy
        calls and reused temporaries.
        """
        sizes = [sig.n_samples for sig in signatures]
        if feature is None:
            n_walked = signatures[0].n_features
            columns = [sig.flat for sig in signatures]
            self_cdfs = [sig.self_cdf.T.ravel() for sig in signatures]
            rows = gaps.reshape(len(signatures), -1)
        else:
            n_walked = 1
            columns = [sig.flat[feature * n:(feature + 1) * n]
                       for sig, n in zip(signatures, sizes)]
            self_cdfs = [sig.self_cdf[:, feature] for sig in signatures]
            rows = gaps[:, :, feature]
        merged = np.concatenate(columns)
        order = merged.argsort(kind="stable")
        merged = merged[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self_cdf = np.concatenate(self_cdfs)
        segments = np.repeat(sizes, n_walked)
        starts = np.cumsum(segments) - segments
        # Column offsets put feature f on its own range: it owns the f-th
        # of n_walked equal blocks of ``merged``, with i's f·n_i values of
        # earlier features below it. Taking n_i back at each block start
        # cancels those, so the running counts are per-feature.
        block = order.size // n_walked
        counts = np.empty_like(order)
        cdf = np.empty(order.size)
        for i, (column, n_i) in enumerate(zip(columns, sizes)):
            landed = merged.searchsorted(column, side="left")
            below = np.bincount(landed, minlength=order.size)
            below[block::block] -= n_i
            np.take(below.cumsum(out=below), rank, out=counts)
            np.divide(counts, n_i, out=cdf)
            np.abs(np.subtract(cdf, self_cdf, out=cdf), out=cdf)
            np.maximum.reduceat(cdf, starts, out=rows[i])


class WassersteinTest(_UnivariateTest):
    """``sim = 1 − W1`` on [0, 1] features (Eq. 2).

    The paper sums absolute CDF differences on equal-size CDF vectors;
    for samples on the unit interval that sum is exactly the
    Wasserstein-1 distance :math:`\\int_0^1 |F_a - F_b|\\,dx \\le 1`,
    which we compute exactly by piecewise integration.
    """

    name = "wd"

    def feature_similarity(self, values_a, values_b):
        """One minus the exact empirical W1 distance."""
        a = np.sort(np.asarray(values_a, dtype=float))
        b = np.sort(np.asarray(values_b, dtype=float))
        if a.size == 0 or b.size == 0:
            raise ValueError("empty sample in Wasserstein test")
        support = unique_classes(np.concatenate([a, b, [0.0, 1.0]]))
        cdf_a = np.searchsorted(a, support, side="right") / a.size
        cdf_b = np.searchsorted(b, support, side="right") / b.size
        widths = np.diff(support)
        distance = float(np.sum(np.abs(cdf_a[:-1] - cdf_b[:-1]) * widths))
        return 1.0 - min(distance, 1.0)

    def _signature_feature_similarities(self, signature_a, signature_b):
        # Piecewise integration over the merged support with duplicates
        # kept: duplicate points contribute zero-width segments, so the
        # integral matches the unique-support reference path.
        n_features = signature_a.n_features
        merged = np.sort(np.concatenate([
            signature_a.flat, signature_b.flat, signature_a.boundary_flat(),
        ]))
        n_rows = signature_a.n_samples + signature_b.n_samples + 2
        support = merged.reshape(n_rows, n_features, order="F")
        widths = np.diff(support, axis=0)
        cdf_a = signature_a._deflatten(
            np.searchsorted(signature_a.flat, merged, side="right"),
            signature_a.n_samples,
        ) / signature_a.n_samples
        cdf_b = signature_b._deflatten(
            np.searchsorted(signature_b.flat, merged, side="right"),
            signature_b.n_samples,
        ) / signature_b.n_samples
        distance = np.sum(np.abs(cdf_a[:-1] - cdf_b[:-1]) * widths, axis=0)
        return 1.0 - np.minimum(distance, 1.0)

    # W1 admits a quantile form: the integral of |F_a - F_b| over [0, 1]
    # equals the integral of |Q_a - Q_b| over quantile levels. Empirical
    # quantile functions are piecewise constant with breakpoints at
    # i/n_a and j/n_b, so on the *merged* level grid the distance is a
    # fixed weighted sum of gathered sorted values — the gather indices
    # and segment widths depend only on (n_a, n_b), letting whole blocks
    # of problems evaluate in one batched kernel. Equal sizes reduce to
    # the mean absolute gap between sorted-value vectors (uniform grid).

    def _merged_quantile_grid(self, n_a, n_b):
        """``(widths, idx_a, idx_b)`` of the merged quantile-level grid.

        Levels are represented as integers on the common denominator
        ``lcm(n_a, n_b)``, so segment boundaries and the floor-division
        gather indices are exact (no float-rounding flips near i/n).
        """
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

    #: Cap on the (rows_a, P_b, K, F) gap tensor a single chunk of the
    #: grid kernel materializes (in float64 elements, ~64 MB). It binds
    #: only when size groups are large; lowered to the fold's block
    #: budget it made WD ~17% slower on dexter and a 400-problem set
    #: (``benchmarks/bench_integration.py``) for under 1 MB less peak.
    _GRID_CHUNK_ELEMENTS = 8_000_000

    def _grid_distance_block(self, stacked_a, stacked_b, n_a, n_b):
        """W1 distances between two stacks of sorted columns, shape
        ``(P_a, P_b, F)``, via the merged quantile grid.

        The gap tensor is reduced in row chunks of ``stacked_a`` so
        peak memory stays bounded regardless of how many problems (or
        samples) a size-group pair holds.
        """
        widths, idx_a, idx_b = self._merged_quantile_grid(n_a, n_b)
        quantiles_a = stacked_a[:, idx_a, :]
        quantiles_b = stacked_b[:, idx_b, :]
        p_a = quantiles_a.shape[0]
        per_row = max(quantiles_b.size, 1)
        chunk = max(1, self._GRID_CHUNK_ELEMENTS // per_row)
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

    def _signature_feature_similarities_many(self, probe, signatures):
        rows = np.empty((len(signatures), probe.n_features))
        by_size = {}
        for j, signature in enumerate(signatures):
            by_size.setdefault(signature.n_samples, []).append(j)
        probe_stack = probe.sorted_columns[None, :, :]
        for n_samples, indices in by_size.items():
            stacked = np.stack(
                [signatures[j].sorted_columns for j in indices]
            )
            if n_samples == probe.n_samples:
                distance = np.abs(stacked - probe.sorted_columns).mean(axis=1)
            else:
                distance = self._grid_distance_block(
                    probe_stack, stacked, probe.n_samples, n_samples
                )[0]
            rows[indices] = 1.0 - np.minimum(distance, 1.0)
        return rows

    def signature_similarity_matrix(self, signatures):
        """All-pairs ``sim_p`` over a list of signatures in one pass.

        Equal-size signatures (the common case: problems built from one
        corpus generator) use the quantile form of W1 over a single
        stacked (P, n, F) tensor; mixed sizes batch per *pair of size
        groups* through the merged-quantile-grid kernel (one gather +
        one weighted reduction per group pair) instead of the old
        per-pair merged-support integration. Pairwise results agree
        with :meth:`signature_similarity` to well below 1e-9 (summation
        order differs).

        Working memory: the stacked sorted columns (the problems'
        features once more), one row's (P, n, F) gaps or one size-group
        pair's grid chunk (at most :attr:`_GRID_CHUNK_ELEMENTS`), and
        one fold block: each row, or each size-group pair's block, is
        folded into ``sim_p`` as soon as it exists.
        """
        n_problems = len(signatures)
        n_features = self._check_shared_feature_space(signatures)
        by_size = {}
        for i, signature in enumerate(signatures):
            by_size.setdefault(signature.n_samples, []).append(i)
        if len(by_size) == 1:
            stacked = np.stack([sig.sorted_columns for sig in signatures])

            def fill(start, stop, out):
                for i in range(start, stop):
                    distance = np.abs(stacked - stacked[i]).mean(axis=1)
                    np.subtract(1.0, np.minimum(distance, 1.0), out=out[i - start])

            blocks = self._row_blocks(n_problems, n_features, fill)
        else:
            blocks = self._size_group_blocks(signatures, by_size)
        return self._fold_similarity_matrix(signatures, blocks)

    def _size_group_blocks(self, signatures, by_size):
        """Fold blocks of the mixed-size kernel, one per size group: the
        group's rows against its own and every larger group, assembled
        from one grid block per pair of size groups (each unordered
        pair once; the fold mirrors it)."""
        sizes = sorted(by_size)
        stacks = {
            n_samples: np.stack([signatures[i].sorted_columns for i in indices])
            for n_samples, indices in by_size.items()
        }
        # The problems in ascending size order, and where each group's
        # columns start in it.
        columns = np.concatenate([by_size[n_samples] for n_samples in sizes])
        starts = np.cumsum([0] + [len(by_size[n]) for n in sizes])
        n_features = signatures[0].n_features
        for position, n_a in enumerate(sizes):
            first = starts[position]
            block = np.empty((len(by_size[n_a]), len(columns) - first, n_features))
            for later, n_b in enumerate(sizes[position:], start=position):
                distance = self._grid_distance_block(
                    stacks[n_a], stacks[n_b], n_a, n_b
                )
                np.subtract(
                    1.0, np.minimum(distance, 1.0),
                    out=block[:, starts[later] - first:starts[later + 1] - first],
                )
            yield by_size[n_a], columns[first:], block


class PopulationStabilityTest(_UnivariateTest):
    """``sim = 1 / (1 + PSI)`` over ``n_bins`` equal-width bins (Eq. 3).

    Bin proportions are Laplace-smoothed so empty bins cannot produce
    infinite index values.
    """

    name = "psi"

    def __init__(self, n_bins=100, smoothing=1e-4):
        self.n_bins = n_bins
        self.smoothing = smoothing

    @property
    def n_bins(self):
        return self._n_bins

    @n_bins.setter
    def n_bins(self, value):
        # Bin edges are cached per n_bins; the setter keeps them in
        # sync so mutating n_bins cannot desync the two paths.
        if value < 2:
            raise ValueError("PSI needs at least two bins")
        self._n_bins = value
        self._edges = np.linspace(0.0, 1.0, value + 1)

    def feature_similarity(self, values_a, values_b):
        """Inverse-PSI similarity of two 1-d samples."""
        a = np.asarray(values_a, dtype=float)
        b = np.asarray(values_b, dtype=float)
        if a.size == 0 or b.size == 0:
            raise ValueError("empty sample in PSI test")
        prop_a, _ = np.histogram(np.clip(a, 0, 1), bins=self._edges)
        prop_b, _ = np.histogram(np.clip(b, 0, 1), bins=self._edges)
        prop_a = prop_a / a.size + self.smoothing
        prop_b = prop_b / b.size + self.smoothing
        prop_a /= prop_a.sum()
        prop_b /= prop_b.sum()
        psi = float(np.sum((prop_a - prop_b) * np.log(prop_a / prop_b)))
        return 1.0 / (1.0 + max(psi, 0.0))

    def _proportions(self, signature):
        """Smoothed, renormalized bin proportions, shape (F, n_bins)."""
        prop = (
            signature.histogram(self.n_bins) / signature.n_samples
            + self.smoothing
        )
        return prop / prop.sum(axis=1, keepdims=True)

    def _signature_feature_similarities(self, signature_a, signature_b):
        # Bin counts are memoized per signature; the PSI index itself
        # is a closed-form reduction over the (F, n_bins) count arrays.
        prop_a = self._proportions(signature_a)
        prop_b = self._proportions(signature_b)
        psi = np.sum((prop_a - prop_b) * np.log(prop_a / prop_b), axis=1)
        return 1.0 / (1.0 + np.maximum(psi, 0.0))

    def _signature_feature_similarities_many(self, probe, signatures):
        prop_probe = self._proportions(probe)
        props = np.stack([self._proportions(sig) for sig in signatures])
        psi = np.sum(
            (prop_probe - props) * np.log(prop_probe / props), axis=2
        )
        return 1.0 / (1.0 + np.maximum(psi, 0.0))

    def signature_similarity_matrix(self, signatures):
        """All-pairs ``sim_p`` over a list of signatures in one pass.

        Bin proportions and their logs are computed once per problem
        and the P×P PSI reduction runs row by row in numpy. Pairwise
        results agree with :meth:`signature_similarity` to well below
        1e-9 (``log p_a − log p_b`` replaces ``log(p_a / p_b)``).

        Working memory: the (P, F, n_bins) proportions and their logs,
        two reused row buffers of that shape, and one fold block: each
        row is folded into ``sim_p`` as soon as it exists.
        """
        n_problems = len(signatures)
        n_features = self._check_shared_feature_space(signatures)
        props = np.stack([self._proportions(sig) for sig in signatures])
        logs = np.log(props)
        prop_gaps = np.empty_like(props)
        log_gaps = np.empty_like(props)

        def fill(start, stop, out):
            for i in range(start, stop):
                np.subtract(props[i], props, out=prop_gaps)
                np.subtract(logs[i], logs, out=log_gaps)
                psi = np.sum(np.multiply(prop_gaps, log_gaps, out=prop_gaps), axis=2)
                np.divide(1.0, 1.0 + np.maximum(psi, 0.0), out=out[i - start])

        return self._fold_similarity_matrix(
            signatures, self._row_blocks(n_problems, n_features, fill)
        )


class ClassifierTwoSampleTest:
    """Multivariate C2ST: ``sim_p = 1 − F1`` of a discriminator (§4.2).

    A classifier is trained to distinguish the two problems' feature
    vectors; cross-validated predictions keep the score honest. Samples
    are capped at ``max_samples`` per side to bound cost on large
    problems. The default discriminator is logistic regression (one of
    the standard C2ST choices in Lopez-Paz & Oquab 2016) because the
    test runs once per *pair of ER problems* — quadratic in the number
    of problems.
    """

    name = "c2st"
    #: The F1 positive label and the shared-RNG subsample draws depend
    #: on argument order, so c2st results must never be cached under an
    #: order-normalized pair key.
    symmetric = False

    def __init__(self, estimator=None, cv=2, max_samples=150,
                 random_state=0):
        self.estimator = estimator
        self.cv = cv
        self.max_samples = max_samples
        self.random_state = random_state
        # Imported here: KS, WD and PSI, the tests a server runs, need
        # none of the classifier machinery.
        from ..ml.linear import LogisticRegression

        # Built once: cross_val_predict clones per fold, so one default
        # discriminator instance can serve every pairwise call.
        self._default_estimator = LogisticRegression(max_iter=40, lr=0.5)

    def problem_similarity(self, features_a, features_b):
        """Inverse F1 of the discriminator between the two problems."""
        from ..ml.metrics import f1_score
        from ..ml.model_selection import cross_val_predict

        features_a = np.asarray(features_a, dtype=float)
        features_b = np.asarray(features_b, dtype=float)
        if features_a.shape[1] != features_b.shape[1]:
            raise ValueError("ER problems must share the feature space")
        rng = check_random_state(self.random_state)
        a = _subsample(features_a, self.max_samples, rng)
        b = _subsample(features_b, self.max_samples, rng)
        X = np.vstack([a, b])
        y = np.concatenate([np.zeros(len(a), dtype=int),
                            np.ones(len(b), dtype=int)])
        estimator = self.estimator or self._default_estimator
        predictions = cross_val_predict(
            estimator, X, y, cv=self.cv,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        # F1 w.r.t. the smaller side addresses the size skew the paper
        # mentions; with equal subsamples it reduces to plain F1.
        positive = 1 if len(b) <= len(a) else 0
        score = f1_score(y, predictions, positive_label=positive)
        return float(np.clip(1.0 - score, 0.0, 1.0))

    def signature_similarity(self, signature_a, signature_b):
        """``sim_p`` from two problem signatures.

        C2ST is multivariate and its two subsample draws share one RNG
        stream, so no per-problem statistic can replace them without
        changing results; signatures keep the raw matrix and this path
        is bit-identical to :meth:`problem_similarity`. Consumers still
        benefit through the pair- and entry-level caches upstream.
        """
        return self.problem_similarity(
            signature_a.features, signature_b.features
        )


def _subsample(matrix, max_samples, rng):
    if len(matrix) <= max_samples:
        return matrix
    keep = rng.choice(len(matrix), size=max_samples, replace=False)
    return matrix[keep]


#: Registry of test names (Table 3) -> factory.
DISTRIBUTION_TESTS = {
    "ks": KolmogorovSmirnovTest,
    "wd": WassersteinTest,
    "psi": PopulationStabilityTest,
    "c2st": ClassifierTwoSampleTest,
}


def make_distribution_test(name, **kwargs):
    """Instantiate a distribution test from its Table 3 short name."""
    try:
        factory = DISTRIBUTION_TESTS[name]
    except KeyError:
        raise KeyError(
            f"unknown distribution test {name!r}; choose from "
            f"{sorted(DISTRIBUTION_TESTS)}"
        ) from None
    return factory(**kwargs)


def problem_similarity(problem_a, problem_b, test):
    """``sim_p`` between two :class:`~repro.core.problem.ERProblem`."""
    return test.problem_similarity(problem_a.features, problem_b.features)
