"""AnyMatch simulator: small-LM matcher with AutoML-ish selection
(Zhang et al., EDBT 2025).

AnyMatch fine-tunes a small language model (GPT-2) on serialised pairs,
with an AutoML-flavoured selection of training configuration and a
filtered, down-sampled training set (parameterised sample size ``n_r``).
The simulator keeps that shape: a 1-layer pair transformer, a small
grid of candidate configurations scored on a validation split, and
budgeted sampling of training pairs (DESIGN.md §2).
"""

from __future__ import annotations

import numpy as np

from ..ml.metrics import f1_score
from ..ml.utils import check_random_state, unique_classes
from .lm_common import PairTransformerClassifier

__all__ = ["AnyMatchClassifier"]

_CANDIDATE_CONFIGS = (
    {"lr": 2e-3, "epochs": 4},
    {"lr": 1e-3, "epochs": 6},
)


class AnyMatchClassifier:
    """Budgeted small-LM matcher with configuration selection.

    Parameters
    ----------
    sample_size : int
        ``n_r``: labelled pairs sampled for training (the comparable
        budget of the evaluation).
    validation_fraction : float
        Held-out share for scoring candidate configurations.
    random_state : int, optional
    """

    name = "anymatch"

    def __init__(self, sample_size=1000, validation_fraction=0.25,
                 dim=32, random_state=None):
        self.sample_size = sample_size
        self.validation_fraction = validation_fraction
        self.dim = dim
        self.random_state = random_state
        self._model = None

    def fit(self, pairs, labels, attributes=None):
        """Sample a budgeted training set and pick the best config."""
        labels = np.asarray(labels, dtype=int)
        rng = check_random_state(self.random_state)
        budget = min(self.sample_size, len(labels))
        chosen = _balanced_sample(labels, budget, rng)
        sample_pairs = [pairs[int(i)] for i in chosen]
        sample_labels = labels[chosen]

        n_val = max(2, int(len(chosen) * self.validation_fraction))
        val_pairs = sample_pairs[:n_val]
        val_labels = sample_labels[:n_val]
        train_pairs = sample_pairs[n_val:]
        train_labels = sample_labels[n_val:]
        if len(train_pairs) < 4 or len(set(train_labels.tolist())) < 2:
            train_pairs, train_labels = sample_pairs, sample_labels
            val_pairs, val_labels = sample_pairs, sample_labels

        best_model = None
        best_score = -1.0
        for config in _CANDIDATE_CONFIGS:
            model = PairTransformerClassifier(
                dim=self.dim, n_layers=1,
                epochs=config["epochs"], lr=config["lr"],
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            model.fit(train_pairs, train_labels, attributes)
            score = f1_score(
                val_labels, model.predict(val_pairs, attributes)
            )
            if score > best_score:
                best_score = score
                best_model = model
        self._model = best_model
        self.validation_f1_ = best_score
        return self

    def predict(self, pairs, attributes=None):
        """Binary predictions with the selected configuration."""
        if self._model is None:
            raise RuntimeError("AnyMatchClassifier is not fitted")
        return self._model.predict(pairs, attributes)

    def predict_proba(self, pairs, attributes=None):
        """Match probabilities with the selected configuration."""
        if self._model is None:
            raise RuntimeError("AnyMatchClassifier is not fitted")
        return self._model.predict_proba_texts(
            self._model.texts_for_pairs(pairs, attributes)
        )


def _balanced_sample(labels, budget, rng):
    """Sample up to ``budget`` indices, keeping both classes present."""
    indices = rng.permutation(len(labels))[:budget]
    present = unique_classes(labels[indices])
    if len(present) < 2:
        for cls in unique_classes(labels):
            if cls not in present:
                members = np.nonzero(labels == cls)[0]
                if len(members):
                    indices[-1] = members[int(rng.integers(0, len(members)))]
    return indices
