"""Per-problem signatures: cached sufficient statistics for §4.2 tests.

Pairwise similarity-distribution analysis is the hot loop of both
repository construction (every pair of problems in :math:`G_P`, §4.3)
and repository search (§4.5). The naive implementation re-derives
everything from the raw feature matrix on every comparison: KS and WD
re-sort both problems' feature columns, PSI re-bins them, and the
per-feature loop runs in Python. A :class:`ProblemSignature` computes
each problem's sufficient statistics exactly once so a pairwise test
reduces to a handful of vectorized numpy kernels over *all* features at
once.

Cached statistic -> paper equation map
--------------------------------------
``sorted_columns`` / ``flat``
    Column-sorted feature values — the empirical CDF supports that
    Eq. 1 (KS) and Eq. 2 (WD) evaluate. ``flat`` is the column-major
    flattening with a per-column offset of :data:`COLUMN_STRIDE` so one
    ``np.searchsorted`` call resolves every feature simultaneously
    (columns live on disjoint numeric ranges, so the flattened array
    stays globally sorted).
``self_cdf``
    :math:`\\hat F(x)` of each column evaluated at its own sorted
    points (``side="right"``, ties resolved to the tie group's last
    rank) — half of the KS supremum in Eq. 1 comes for free.
``histogram(n_bins)``
    Per-feature equal-width bin counts over ``[0, 1]`` — the binned
    proportions of the PSI index (Eq. 3), computed lazily per bin count
    and memoized.
``stds`` / ``means``
    Per-feature standard deviations — the discriminative-power weights
    of the ``sim_p`` aggregation (§4.2) — and per-feature means, the
    summary moments the sketch index folds into its vectors.
``features``
    The raw matrix is retained for the multivariate C2ST, whose
    subsample draws are order-sensitive in the shared RNG stream and
    therefore cannot be cached per problem without changing results.

All signature-based kernels reproduce the raw-matrix implementations
to well below 1e-9 (KS and PSI are bit-identical; WD differs only by
floating-point summation order over zero-width duplicate support
points), so every figure/table reproduction is unchanged. One caveat:
adding the per-column offset can merge two *distinct* values that lie
within one ulp of the offset magnitude (~1e-13 for typical feature
counts) into a tie. Equal values stay exactly equal and any separation
above that threshold is preserved, so this is unreachable for real
similarity features; histogram binning, where a linspace edge can
systematically land sub-ulp-close to rounded data, deliberately avoids
the offset trick (see :meth:`ProblemSignature.histogram`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = [
    "COLUMN_STRIDE",
    "ProblemSignature",
    "SignatureStore",
    "problem_signature",
    "pairwise_similarities",
    "search_similarities",
]

#: Per-column offset applied before flattening column-sorted matrices.
#: Features live in [0, 1], so any stride > 1 keeps columns on disjoint
#: ranges; 4.0 leaves headroom for slightly out-of-range raw matrices.
COLUMN_STRIDE = 4.0


class ProblemSignature:
    """Sufficient statistics of one ER problem's feature matrix.

    Parameters
    ----------
    features : ndarray of shape (n_samples, n_features)
        Similarity feature vectors; an :class:`~repro.core.problem.ERProblem`
        is accepted too (its ``features`` attribute is used).
    """

    __slots__ = (
        "features",
        "n_samples",
        "n_features",
        "_sorted_columns",
        "_offsets",
        "_flat",
        "_self_cdf",
        "_stds",
        "_means",
        "_boundary_flat",
        "_histograms",
    )

    def __init__(self, features):
        if hasattr(features, "features"):
            features = features.features
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("feature matrices must be 2-d")
        if features.shape[0] == 0:
            raise ValueError("a problem signature needs at least one sample")
        # The offset-flattening trick needs every column on a disjoint
        # numeric range: values outside [0, 1] (the §2 feature domain,
        # which ERProblem enforces) would leave `flat` unsorted and
        # produce silently wrong CDFs, so reject them loudly here.
        if (
            np.any(features < -1e-9)
            or np.any(features > 1 + 1e-9)
            or not np.all(np.isfinite(features))
        ):
            raise ValueError("similarity features must lie in [0, 1]")
        self.features = features
        self.n_samples, self.n_features = features.shape
        # Statistics are computed lazily (once each): the multivariate
        # C2ST path only reads ``features``, so signatures must not pay
        # for sorts and CDFs it never touches.
        self._sorted_columns = None
        self._offsets = None
        self._flat = None
        self._self_cdf = None
        self._stds = None
        self._means = None
        self._boundary_flat = None
        self._histograms = {}

    @property
    def sorted_columns(self):
        if self._sorted_columns is None:
            self._sorted_columns = np.sort(self.features, axis=0)
        return self._sorted_columns

    @property
    def offsets(self):
        if self._offsets is None:
            self._offsets = COLUMN_STRIDE * np.arange(self.n_features)
        return self._offsets

    @property
    def flat(self):
        if self._flat is None:
            self._flat = (
                self.sorted_columns + self.offsets
            ).ravel(order="F")
        return self._flat

    @property
    def self_cdf(self):
        if self._self_cdf is None:
            flat = self.flat
            self._self_cdf = self._deflatten(
                flat.searchsorted(flat, side="right"), self.n_samples
            ) / self.n_samples
        return self._self_cdf

    @property
    def stds(self):
        if self._stds is None:
            self._stds = self.features.std(axis=0)
        return self._stds

    @property
    def means(self):
        if self._means is None:
            self._means = self.features.mean(axis=0)
        return self._means

    def _deflatten(self, indices, n_rows):
        """Reshape flat searchsorted indices back to per-column counts."""
        counts = indices.reshape(-1, self.n_features, order="F")
        return counts - np.arange(self.n_features) * n_rows

    # -- kernels -----------------------------------------------------------

    def cdf_at(self, other):
        """Empirical CDFs of this problem at ``other``'s sorted points.

        Returns an ``(other.n_samples, n_features)`` array: column ``f``
        holds :math:`\\hat F_f(x)` evaluated at the sorted values of
        ``other``'s feature ``f`` (``side="right"`` semantics, matching
        the raw KS/WD implementations).
        """
        indices = self.flat.searchsorted(other.flat, side="right")
        return self._deflatten(indices, self.n_samples) / self.n_samples

    def boundary_flat(self):
        """Flattened per-column ``{0, 1}`` boundary points (WD support)."""
        if self._boundary_flat is None:
            self._boundary_flat = np.sort(
                np.concatenate([self.offsets, self.offsets + 1.0])
            )
        return self._boundary_flat

    def histogram(self, n_bins):
        """Per-feature bin counts over ``n_bins`` equal-width bins.

        Matches ``np.histogram(np.clip(column, 0, 1), bins=linspace)``
        exactly (the uniform-bin fast path has searchsorted semantics);
        results are memoized per ``n_bins``. The per-column offset trick
        is deliberately avoided here: adding an offset can collapse a
        1-ulp gap between a data value and a ``linspace`` edge and flip
        its bin, so edges are resolved per column on the un-shifted
        sorted values (a once-per-problem loop, not a per-pair cost).
        """
        counts = self._histograms.get(n_bins)
        if counts is None:
            edges = np.linspace(0.0, 1.0, n_bins + 1)
            clipped = np.clip(self.sorted_columns, 0.0, 1.0)
            counts = np.empty((self.n_features, n_bins), dtype=np.intp)
            for f in range(self.n_features):
                below = np.searchsorted(clipped[:, f], edges, side="left")
                counts[f] = np.diff(below)
                # np.histogram closes the last bin on the right.
                counts[f, -1] = self.n_samples - below[-2]
            self._histograms[n_bins] = counts
        return counts

    def __repr__(self):
        return (
            f"ProblemSignature(n_samples={self.n_samples}, "
            f"n_features={self.n_features})"
        )


def problem_signature(problem_or_features):
    """Convenience constructor mirroring :class:`ProblemSignature`."""
    return ProblemSignature(problem_or_features)


class SignatureStore:
    """LRU cache of :class:`ProblemSignature` keyed by problem key.

    A cached signature is reused only when the stored feature matrix is
    the *same object* as the one requested — re-inserting a different
    problem under an existing key transparently recomputes. Mutating a
    cached matrix in place is not detected; replace the array instead
    (as :meth:`MoRER._update_entry` does).
    """

    def __init__(self, max_size=1024):
        if max_size < 1:
            raise ValueError("SignatureStore needs max_size >= 1")
        self.max_size = int(max_size)
        self._data = OrderedDict()
        # LRU bookkeeping (move_to_end / popitem) is a multi-step
        # mutation, so concurrent readers — repro.service shares
        # sel_base searches on a read lock — serialise on this lock.
        self._lock = threading.Lock()
        #: How many signatures this store has *constructed* (cache
        #: misses); seeded signatures (:meth:`put`) don't count, so the
        #: persistence tests can assert a loaded store rebuilds nothing.
        self.builds = 0

    def signature(self, key, features):
        """Cached signature for ``key``, recomputed if ``features`` changed."""
        with self._lock:
            cached = self._data.get(key)
            if cached is not None and cached.features is features:
                self._data.move_to_end(key)
                return cached
        # Construct outside the lock: a signature build is the
        # expensive part, and concurrent sel_base probes must not
        # serialise on each other's cold misses. A racing duplicate
        # build is harmless — the recheck below keeps one winner.
        signature = ProblemSignature(features)
        with self._lock:
            cached = self._data.get(key)
            if cached is not None and cached.features is features:
                self._data.move_to_end(key)
                return cached
            self.builds += 1
            self._data[key] = signature
            self._data.move_to_end(key)
            while len(self._data) > self.max_size:
                self._data.popitem(last=False)
            return signature

    def put(self, key, signature):
        """Seed the cache with a pre-built signature (persistence
        restore); does not count towards :attr:`builds`."""
        with self._lock:
            self._data[key] = signature
            self._data.move_to_end(key)
            while len(self._data) > self.max_size:
                self._data.popitem(last=False)

    def get(self, key):
        """Cached signature or ``None`` (counts as a use for LRU)."""
        with self._lock:
            cached = self._data.get(key)
            if cached is not None:
                self._data.move_to_end(key)
            return cached

    def invalidate(self, key):
        """Drop ``key``; returns whether it was cached."""
        with self._lock:
            return self._data.pop(key, None) is not None

    def clear(self):
        with self._lock:
            self._data.clear()

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data


def pairwise_similarities(signatures, test):
    """Symmetric ``sim_p`` matrix over a list of signatures.

    The matrix kernel behind the graph's batch insertions (the fit-time
    :meth:`ERProblemGraph.build` foremost). Tests that implement
    ``signature_similarity_matrix`` (KS, WD and PSI do) evaluate all
    pairs in one batched pass from two signatures up; otherwise each
    pair goes through the test's vectorized signature path. For
    order-asymmetric tests (``test.symmetric`` false, e.g. C2ST) both
    orientations are computed, so ``matrix[i, j]`` is always
    ``sim_p(i, j)`` in that order. The diagonal is fixed at 1.0
    (self-similarity — never consumed by the graph, which has no
    self-loops).

    Working memory, beyond the P×P result: the batched kernels fold
    their rows into ``sim_p`` in constant-size blocks, so the largest
    transient is KS's (P, P, F) gap array, 8·P²·F bytes, plus one
    feature's O(Σ n_i) walk arrays (see each test's
    ``signature_similarity_matrix``); the per-pair path holds one pair.
    """
    signatures = list(signatures)
    n = len(signatures)
    batched = getattr(test, "signature_similarity_matrix", None)
    if callable(batched) and n >= 2:
        return batched(signatures)
    symmetric = getattr(test, "symmetric", False)
    matrix = np.ones((n, n))
    for i in range(n):
        for j in range(i):
            similarity = test.signature_similarity(
                signatures[i], signatures[j]
            )
            matrix[i, j] = similarity
            matrix[j, i] = similarity if symmetric else (
                test.signature_similarity(signatures[j], signatures[i])
            )
    return matrix


def search_similarities(test, probe, signatures):
    """``sim_p`` of one probe against many candidate signatures.

    The one-vs-many kernel behind the ANN rerank in
    :meth:`ModelRepository.search`: tests that implement
    ``signature_similarity_many`` (KS/WD/PSI do) evaluate every
    candidate in batched numpy; others (C2ST) fall back to one
    vectorized ``signature_similarity`` call per candidate. Always
    computed in ``sim_p(probe, candidate)`` orientation.
    """
    signatures = list(signatures)
    batched = getattr(test, "signature_similarity_many", None)
    if callable(batched):
        return np.asarray(batched(probe, signatures), dtype=float)
    return np.array([
        test.signature_similarity(probe, signature)
        for signature in signatures
    ])
