"""ER problems: the unit MoRER operates on (§2).

An :class:`ERProblem` :math:`p_{k,l}` holds the similarity feature
vectors of all candidate record pairs between data sources
:math:`D_k, D_l`, plus (when known) their match labels — labels are the
ground truth used for evaluation and the oracle that active learning
queries.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ERProblem"]


class ERProblem:
    """Similarity feature vectors of one data source pair.

    Parameters
    ----------
    source_a, source_b : str
        Identifiers of the data sources being linked.
    features : ndarray of shape (n_pairs, n_features)
        Similarity feature vectors ``w`` with entries in ``[0, 1]``.
    labels : ndarray of shape (n_pairs,), optional
        1 = match, 0 = non-match; ``None`` for genuinely unlabeled
        problems.
    pair_ids : sequence of (str, str), optional
        Record id pairs aligned with ``features`` — Bootstrap AL's
        record-uniqueness score (Eqs. 11–12) needs them.
    feature_names : sequence of str, optional
        Column labels; defaults to ``f0..f{t-1}``.
    """

    def __init__(self, source_a, source_b, features, labels=None,
                 pair_ids=None, feature_names=None):
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if features.shape[0] == 0:
            raise ValueError("an ER problem needs at least one record pair")
        # The in-range form rejects NaN too: every comparison with it fails.
        if not (np.all(features >= -1e-9) and np.all(features <= 1 + 1e-9)):
            raise ValueError(
                "similarity features must be finite and lie in [0, 1]"
            )
        self.source_a = str(source_a)
        self.source_b = str(source_b)
        self.features = np.clip(features, 0.0, 1.0)
        if labels is not None:
            labels = np.asarray(labels).astype(int)
            if labels.shape != (features.shape[0],):
                raise ValueError("labels must align with features")
            if not np.isin(labels, (0, 1)).all():
                raise ValueError("labels must be binary 0/1")
        self.labels = labels
        if pair_ids is not None:
            pair_ids = [tuple(p) for p in pair_ids]
            if len(pair_ids) != features.shape[0]:
                raise ValueError("pair_ids must align with features")
        self.pair_ids = pair_ids
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(features.shape[1])]
        if len(feature_names) != features.shape[1]:
            raise ValueError("feature_names must align with feature columns")
        self.feature_names = list(feature_names)

    # -- identity ----------------------------------------------------------

    @property
    def key(self):
        """Canonical ``(source_a, source_b)`` identifier (sorted)."""
        return tuple(sorted((self.source_a, self.source_b)))

    @property
    def n_pairs(self):
        """Number of record pairs (similarity feature vectors)."""
        return self.features.shape[0]

    @property
    def n_features(self):
        """Size of the shared feature space ``t``."""
        return self.features.shape[1]

    @property
    def n_matches(self):
        """Number of labelled matches (requires labels)."""
        if self.labels is None:
            raise ValueError(f"problem {self.key} has no labels")
        return int(self.labels.sum())

    # -- views -------------------------------------------------------------

    def feature_column(self, feature):
        """1-d similarity distribution :math:`d^f_{k,l}` of one feature.

        ``feature`` may be an index or a feature name.
        """
        if isinstance(feature, str):
            feature = self.feature_names.index(feature)
        return self.features[:, feature]

    def subset(self, indices):
        """New :class:`ERProblem` restricted to ``indices``."""
        indices = np.asarray(indices)
        return ERProblem(
            self.source_a,
            self.source_b,
            self.features[indices],
            None if self.labels is None else self.labels[indices],
            None
            if self.pair_ids is None
            else [self.pair_ids[int(i)] for i in indices],
            self.feature_names,
        )

    def without_labels(self):
        """Copy with labels stripped — what a truly *unsolved* problem is."""
        return ERProblem(
            self.source_a, self.source_b, self.features, None,
            self.pair_ids, self.feature_names,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self):
        """JSON-safe form: the wire format of the serving API and the
        payload the durability WAL records for replay."""
        return {
            "source_a": self.source_a,
            "source_b": self.source_b,
            "features": self.features.tolist(),
            "labels": None if self.labels is None else self.labels.tolist(),
            "pair_ids": (
                None if self.pair_ids is None
                else [list(pair) for pair in self.pair_ids]
            ),
            "feature_names": self.feature_names,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict`; constructor validation applies
        (``ValueError`` on malformed payloads)."""
        return cls(
            data["source_a"], data["source_b"], data["features"],
            labels=data.get("labels"),
            pair_ids=data.get("pair_ids"),
            feature_names=data.get("feature_names"),
        )

    def __repr__(self):
        labelled = "labelled" if self.labels is not None else "unlabelled"
        return (
            f"ERProblem({self.source_a!r}, {self.source_b!r}, "
            f"n_pairs={self.n_pairs}, n_features={self.n_features}, "
            f"{labelled})"
        )
