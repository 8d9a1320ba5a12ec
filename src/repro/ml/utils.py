"""Small validation and RNG helpers shared across the ML substrate.

These mirror the scikit-learn utilities the paper's implementation relied
on (``check_random_state``, array validation) so estimators in
:mod:`repro.ml` behave predictably on user input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_random_state",
    "check_array",
    "check_X_y",
    "class_distribution",
    "unique_classes",
]


def check_random_state(seed):
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed : None, int, numpy.random.Generator or numpy.random.RandomState
        ``None`` gives a non-deterministic generator, an ``int`` a seeded
        one, and an existing generator is passed through unchanged.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.RandomState):
        # Wrap the legacy RandomState in a Generator-compatible adapter.
        return np.random.default_rng(seed.randint(0, 2**32 - 1))
    raise ValueError(f"cannot seed a random generator from {seed!r}")


def check_array(X, *, ensure_2d=True, dtype=np.float64):
    """Validate ``X`` and return it as a contiguous numpy array.

    Raises
    ------
    ValueError
        If ``X`` is empty, contains NaN/inf, or has the wrong rank.
    """
    X = np.asarray(X, dtype=dtype)
    if ensure_2d:
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ValueError(f"expected a 2d array, got shape {X.shape}")
    if X.size == 0:
        raise ValueError("empty array passed to an estimator")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains NaN or infinity")
    return X


def check_X_y(X, y):
    """Validate a feature matrix / label vector pair of matching length."""
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} samples but y has {y.shape[0]} labels"
        )
    return X, y


def unique_classes(y):
    """The sorted distinct values of ``y``: ``np.unique(y)``'s values
    and dtype, from NumPy's sort path. A flagless ``np.unique`` first
    asks ``np.ma.is_masked`` (NumPy 2.4), which imports ``numpy.ma``
    into a process that otherwise never needs it; asked for the
    inverse, it sorts straight away."""
    return np.unique(y, return_inverse=True)[0]


def class_distribution(y):
    """Return ``(classes, counts)`` sorted by class label."""
    classes, counts = np.unique(np.asarray(y), return_counts=True)
    return classes, counts
