"""ANN-style sketch index over problem signatures (§4.5 at scale).

Repository search must stay sub-linear as the repository grows, but the
exact scan pays one distribution test per entry. This module prefilters
that scan: every entry's cached
:class:`~repro.core.signatures.ProblemSignature` is folded into one
fixed-width *sketch vector*, all sketches live in a contiguous matrix,
and a query reduces to one vectorized distance computation plus an
exact ``sim_p`` rerank over the ``n_candidates`` nearest sketches —
the filter-then-verify pattern of blocking surveys and the MAR model
repository, applied to the repository itself.

Sketch layout
-------------
A sketch has ``n_features * (n_bins + 2)`` components::

    [ hist(f_0) | hist(f_1) | ... | means | stds ]

* ``hist(f)`` — the per-feature *cumulative* equal-width histogram
  over ``[0, 1]`` (``n_bins`` bins, normalized, then cumulated): a
  discretized empirical CDF. The exact KS/WD kernels compare CDFs
  (sup-gap and integral-gap), so the L2 distance between cumulative
  sketches tracks ``1 - sim_p`` far more faithfully than raw density
  histograms do — switching to the cumulative form lifted recall@5
  from ~0.62 to ~0.97 at 800 entries in ``bench_ann_search``.
* ``means`` / ``stds`` — per-feature summary moments. They separate
  distributions whose coarse histograms collide and echo the std
  weighting of the ``sim_p`` aggregation (§4.2).

Histogram bins are memoized on the signature, so building a sketch row
is nearly free for entries that have already been searched once.

Widths
------
The query width ``n_candidates`` is the caller's: the repository
reranks ``max(8 * top_k, 48)`` sketch-nearest entries, which keeps
recall@5 ≥ 0.95 on the ``bench_ann_search`` workloads, and the ER
problem graph compares a new problem with its
``max(64, 4 * sqrt(problems))`` nearest vertices. Both engage only once
their structure holds ``index_threshold`` items (see
:class:`~repro.core.config.MoRERConfig`). ``n_bins`` (16 throughout)
sets the sketch resolution. A query scans the whole sketch matrix with
one squared-L2 pass.
"""

from __future__ import annotations

import numpy as np

from .signatures import ProblemSignature

__all__ = ["SketchIndex", "sketch_vector"]


def sketch_vector(signature, n_bins=16):
    """Fixed-width sketch of one :class:`ProblemSignature`.

    Concatenates the per-feature cumulative normalized histograms
    (discretized CDFs over ``n_bins`` equal-width bins on [0, 1]) with
    the per-feature means and standard deviations; see the module
    docstring for the layout and the CDF rationale.
    """
    if not isinstance(signature, ProblemSignature):
        signature = ProblemSignature(signature)
    histograms = signature.histogram(n_bins) / signature.n_samples
    return np.concatenate(
        [np.cumsum(histograms, axis=1).ravel(),
         signature.means, signature.stds]
    )


class SketchIndex:
    """Contiguous sketch matrix with incremental add/remove and
    vectorized nearest-sketch queries.

    Rows are appended into a doubling-capacity float matrix; removing
    an entry swaps the last live row into the hole, so the live prefix
    ``matrix[:len(index)]`` always stays dense and one distance kernel
    covers every entry. Entries are keyed by an opaque id (the
    repository uses ``cluster_id``).

    Parameters
    ----------
    n_bins : int
        Histogram bins per feature (sketch resolution).
    """

    def __init__(self, n_bins=16):
        if n_bins < 2:
            raise ValueError("sketches need at least two histogram bins")
        self.n_bins = int(n_bins)
        self._matrix = None       # (capacity, dim); rows [:_n] are live
        self._ids = []            # row -> entry id
        self._rows = {}           # entry id -> row
        self._n = 0

    def __len__(self):
        return self._n

    def __contains__(self, entry_id):
        return entry_id in self._rows

    def ids(self):
        """Ids of every indexed entry (arbitrary order)."""
        return tuple(self._ids[:self._n])

    @property
    def dim(self):
        """Sketch width, or ``None`` before the first add."""
        return None if self._matrix is None else self._matrix.shape[1]

    def sketch(self, signature):
        """The sketch vector this index derives from a signature."""
        return sketch_vector(signature, self.n_bins)

    def add(self, entry_id, signature):
        """Insert (or refresh) the sketch row for ``entry_id``."""
        vector = self.sketch(signature)
        if self._matrix is None:
            self._matrix = np.empty((64, vector.size))
        elif vector.size != self._matrix.shape[1]:
            raise ValueError(
                "sketch width changed: the index holds "
                f"{self._matrix.shape[1]}-wide rows, got {vector.size} "
                "(entries must share the feature space)"
            )
        row = self._rows.get(entry_id)
        if row is None:
            if self._n == self._matrix.shape[0]:
                self._grow()
            row = self._n
            self._ids.append(entry_id)
            self._rows[entry_id] = row
            self._n += 1
        self._matrix[row] = vector

    def discard(self, entry_id):
        """Drop ``entry_id``'s row (no-op when absent); returns whether
        a row was removed. The last live row is swapped into the hole
        so the matrix prefix stays contiguous."""
        row = self._rows.pop(entry_id, None)
        if row is None:
            return False
        last = self._n - 1
        if row != last:
            self._matrix[row] = self._matrix[last]
            moved = self._ids[last]
            self._ids[row] = moved
            self._rows[moved] = row
        self._ids.pop()
        self._n = last
        return True

    def clear(self):
        self._ids = []
        self._rows = {}
        self._n = 0
        # Release the storage too: an emptied index must accept a new
        # sketch width (and report dim None) like a fresh one.
        self._matrix = None

    def export_rows(self):
        """``(ids, matrix)`` snapshot of the live rows — the persistence
        payload ``bulk_load`` restores. The matrix is a copy."""
        return list(self._ids[:self._n]), (
            np.empty((0, 0))
            if self._matrix is None
            else self._matrix[:self._n].copy()
        )

    def bulk_load(self, ids, matrix):
        """Replace the contents with precomputed sketch rows.

        The persistence path: rows exported at save time come back
        without re-deriving any sketch from its signature, so a loaded
        repository's first indexed search skips the lazy rebuild.
        """
        matrix = np.asarray(matrix, dtype=float)
        ids = list(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError("bulk_load needs one sketch row per id")
        if len(set(ids)) != len(ids):
            raise ValueError("bulk_load ids must be unique")
        self.clear()
        if not ids:
            return
        capacity = max(64, len(ids))
        self._matrix = np.empty((capacity, matrix.shape[1]))
        self._matrix[:len(ids)] = matrix
        self._ids = ids
        self._rows = {entry_id: row for row, entry_id in enumerate(ids)}
        self._n = len(ids)

    def query(self, signature, n_candidates):
        """Ids of the ``n_candidates`` entries nearest the probe's
        sketch, ordered by ascending sketch distance."""
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self._n == 0:
            return []
        vector = self.sketch(signature)
        if vector.size != self._matrix.shape[1]:
            raise ValueError(
                "probe sketch width does not match the index "
                f"({vector.size} vs {self._matrix.shape[1]})"
            )
        n_candidates = min(int(n_candidates), self._n)
        delta = self._matrix[:self._n] - vector
        distances = np.einsum("ij,ij->i", delta, delta)
        if n_candidates < distances.size:
            nearest = np.argpartition(distances, n_candidates - 1)
            nearest = nearest[:n_candidates]
        else:
            nearest = np.arange(distances.size)
        nearest = nearest[np.argsort(distances[nearest], kind="stable")]
        return [self._ids[int(row)] for row in nearest]

    def _grow(self):
        capacity = 2 * self._matrix.shape[0]
        matrix = np.empty((capacity, self._matrix.shape[1]))
        matrix[:self._n] = self._matrix[:self._n]
        self._matrix = matrix

    def __repr__(self):
        return (
            f"SketchIndex(n_bins={self.n_bins}, entries={self._n})"
        )
