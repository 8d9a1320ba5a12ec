"""TransER: homogeneous transfer learning for ER (Kirielle et al. 2022).

Reimplemented from the paper's description (§3, §5.2): labels are
transferred from a *source* ER task to a *target* task through
feature-vector neighbourhoods. A target vector receives a pseudo label
when

1. its k nearest source neighbours agree confidently on a class
   (class-confidence threshold ``t_c``),
2. its neighbourhood looks structurally like the source neighbourhoods
   (structural-similarity threshold ``t_l``), and
3. the source model is confident in the same label
   (pseudo-label-confidence threshold ``t_p``).

A target classifier is then trained on the accepted pseudo labels. The
evaluation uses the original study's parameters (k=10, t_c=t_l=t_p=0.9).
"""

from __future__ import annotations

import numpy as np

from ..ml.forest import RandomForestClassifier
from ..ml.neighbors import NearestNeighbors
from ..ml.utils import check_random_state, check_X_y

__all__ = ["TransER"]


class TransER:
    """Instance-based transfer from one solved ER task to a new one.

    Parameters
    ----------
    k : int
        Neighbourhood size.
    t_c : float
        Minimum fraction of neighbours agreeing on the majority class.
    t_l : float
        Minimum structural similarity of the neighbourhood (1 minus the
        mean neighbour distance normalised by the feature-space
        diameter).
    t_p : float
        Minimum source-model probability for the transferred label.
    random_state : int, optional
    """

    name = "transer"

    def __init__(self, k=10, t_c=0.9, t_l=0.9, t_p=0.9, random_state=None):
        if k < 1:
            raise ValueError("k must be >= 1")
        for name, value in (("t_c", t_c), ("t_l", t_l), ("t_p", t_p)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.k = k
        self.t_c = t_c
        self.t_l = t_l
        self.t_p = t_p
        self.random_state = random_state

    def fit(self, source_features, source_labels):
        """Learn the source model and index the source vectors."""
        X, y = check_X_y(source_features, source_labels)
        rng = check_random_state(self.random_state)
        self._source_X = X
        self._source_y = y
        self._index = NearestNeighbors(n_neighbors=self.k).fit(X)
        self._model = RandomForestClassifier(
            n_estimators=30, max_depth=10,
            random_state=int(rng.integers(0, 2**31 - 1)),
        ).fit(X, y)
        # Feature-space diameter proxy for structural normalisation:
        # similarity features live in [0,1]^t.
        self._diameter = float(np.sqrt(X.shape[1]))
        return self

    def pseudo_label(self, target_features):
        """Return ``(indices, labels)`` of accepted pseudo labels."""
        X = np.asarray(target_features, dtype=float)
        distances, neighbours = self._index.kneighbors(X, self.k)
        neighbour_labels = self._source_y[neighbours]

        majority = (neighbour_labels.mean(axis=1) >= 0.5).astype(int)
        agreement = np.where(
            majority == 1,
            neighbour_labels.mean(axis=1),
            1.0 - neighbour_labels.mean(axis=1),
        )
        structural = 1.0 - distances.mean(axis=1) / self._diameter
        proba = self._model.predict_proba(X)
        class_index = {c: i for i, c in enumerate(self._model.classes_)}
        model_confidence = np.array(
            [proba[i, class_index[label]] for i, label in enumerate(majority)]
        )
        accepted = (
            (agreement >= self.t_c)
            & (structural >= self.t_l)
            & (model_confidence >= self.t_p)
        )
        return np.nonzero(accepted)[0], majority[accepted]

    def fit_target(self, target_features):
        """Train the target model from pseudo labels; returns ``self``.

        Falls back to the source model when too few pseudo labels (or
        only one class) are accepted — the documented degenerate case.
        """
        indices, labels = self.pseudo_label(target_features)
        self.n_pseudo_labels_ = len(indices)
        X = np.asarray(target_features, dtype=float)
        if len(indices) >= 10 and len(set(labels.tolist())) == 2:
            rng = check_random_state(self.random_state)
            self._target_model = RandomForestClassifier(
                n_estimators=30, max_depth=10,
                random_state=int(rng.integers(0, 2**31 - 1)),
            ).fit(X[indices], labels)
        else:
            self._target_model = self._model
        return self

    def predict(self, target_features):
        """Classify target vectors (after :meth:`fit_target`)."""
        model = getattr(self, "_target_model", None) or self._model
        return model.predict(np.asarray(target_features, dtype=float))

    def fit_predict(self, target_features):
        """Convenience: ``fit_target`` then ``predict`` on the same task."""
        return self.fit_target(target_features).predict(target_features)
