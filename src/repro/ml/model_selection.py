"""Dataset splitting and cross-validation helpers."""

from __future__ import annotations

import numpy as np

from .base import clone
from .utils import check_random_state, unique_classes

__all__ = [
    "train_test_split",
    "StratifiedKFold",
    "cross_val_predict",
    "cross_val_score",
]


def train_test_split(
    *arrays, test_size=0.25, random_state=None, stratify=None, shuffle=True
):
    """Split arrays into train/test partitions.

    Returns ``train_a, test_a, train_b, test_b, ...`` for each input array,
    mirroring scikit-learn. With ``stratify`` the class proportions are
    preserved in both partitions.
    """
    if not arrays:
        raise ValueError("at least one array required")
    n = len(arrays[0])
    for a in arrays:
        if len(a) != n:
            raise ValueError("all arrays must share the same length")
    if isinstance(test_size, float):
        n_test = max(1, int(round(test_size * n)))
    else:
        n_test = int(test_size)
    if not 0 < n_test < n:
        raise ValueError(f"test_size {test_size!r} leaves an empty partition")
    rng = check_random_state(random_state)

    if stratify is not None:
        stratify = np.asarray(stratify)
        test_idx = []
        for cls in unique_classes(stratify):
            members = np.nonzero(stratify == cls)[0]
            if shuffle:
                members = rng.permutation(members)
            take = int(round(len(members) * n_test / n))
            take = min(max(take, 1 if len(members) > 1 else 0), len(members) - 1)
            test_idx.extend(members[:take].tolist())
        test_idx = np.asarray(sorted(test_idx))
    else:
        order = rng.permutation(n) if shuffle else np.arange(n)
        test_idx = np.sort(order[:n_test])
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True

    out = []
    for a in arrays:
        a = np.asarray(a)
        out.append(a[~mask])
        out.append(a[mask])
    return out


class StratifiedKFold:
    """K-fold splitter preserving class proportions per fold."""

    def __init__(self, n_splits=5, shuffle=True, random_state=None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y):
        """Yield ``(train_indices, test_indices)`` per fold."""
        y = np.asarray(y)
        n = len(y)
        rng = check_random_state(self.random_state)
        fold_of = np.empty(n, dtype=int)
        for cls in unique_classes(y):
            members = np.nonzero(y == cls)[0]
            if self.shuffle:
                members = rng.permutation(members)
            fold_of[members] = np.arange(len(members)) % self.n_splits
        for fold in range(self.n_splits):
            test = np.nonzero(fold_of == fold)[0]
            train = np.nonzero(fold_of != fold)[0]
            if len(test) == 0 or len(train) == 0:
                continue
            yield train, test


def cross_val_predict(estimator, X, y, cv=3, random_state=None):
    """Out-of-fold predictions for every sample.

    Used by the classifier two-sample test so that ``sim_p`` reflects
    generalisation, not training-set memorisation.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    predictions = np.empty(len(y), dtype=y.dtype)
    splitter = StratifiedKFold(cv, shuffle=True, random_state=random_state)
    seen = np.zeros(len(y), dtype=bool)
    for train, test in splitter.split(X, y):
        model = clone(estimator)
        model.fit(X[train], y[train])
        predictions[test] = model.predict(X[test])
        seen[test] = True
    if not seen.all():
        # Folds can skip slices only when a class has < n_splits members;
        # fall back to a model over everything for those few rows.
        model = clone(estimator).fit(X, y)
        predictions[~seen] = model.predict(X[~seen])
    return predictions


def cross_val_score(estimator, X, y, cv=3, scoring=None, random_state=None):
    """Per-fold scores (accuracy by default)."""
    from .metrics import accuracy_score

    scoring = scoring or accuracy_score
    X = np.asarray(X)
    y = np.asarray(y)
    scores = []
    splitter = StratifiedKFold(cv, shuffle=True, random_state=random_state)
    for train, test in splitter.split(X, y):
        model = clone(estimator)
        model.fit(X[train], y[train])
        scores.append(scoring(y[test], model.predict(X[test])))
    return np.asarray(scores)
