"""Feature scaling and label encoding."""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator
from .utils import check_array, unique_classes

__all__ = ["StandardScaler", "MinMaxScaler", "LabelEncoder"]


class StandardScaler(BaseEstimator):
    """Zero-mean / unit-variance scaling with constant-feature protection."""

    def __init__(self, with_mean=True, with_std=True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X):
        """Learn per-feature mean and std."""
        X = check_array(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        std = X.std(axis=0) if self.with_std else np.ones(X.shape[1])
        self.scale_ = np.where(std > 0, std, 1.0)
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X):
        """Apply the learned scaling."""
        X = check_array(X)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X):
        """Fit then transform in one call."""
        return self.fit(X).transform(X)

    def inverse_transform(self, X):
        """Undo the scaling."""
        X = check_array(X)
        return X * self.scale_ + self.mean_


class MinMaxScaler(BaseEstimator):
    """Scale features to ``[0, 1]`` with constant-feature protection."""

    def __init__(self):
        pass

    def fit(self, X):
        """Learn per-feature min and range."""
        X = check_array(X)
        self.data_min_ = X.min(axis=0)
        data_range = X.max(axis=0) - self.data_min_
        self.data_range_ = np.where(data_range > 0, data_range, 1.0)
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X):
        """Apply the learned scaling (values may exceed [0,1] off-sample)."""
        X = check_array(X)
        return (X - self.data_min_) / self.data_range_

    def fit_transform(self, X):
        """Fit then transform in one call."""
        return self.fit(X).transform(X)


class LabelEncoder(BaseEstimator):
    """Map arbitrary labels to 0..n-1 integers and back."""

    def __init__(self):
        pass

    def fit(self, y):
        """Learn the sorted label vocabulary."""
        self.classes_ = unique_classes(np.asarray(y))
        return self

    def transform(self, y):
        """Encode labels; unknown labels raise ``ValueError``."""
        y = np.asarray(y)
        indices = np.searchsorted(self.classes_, y)
        bad = (indices >= len(self.classes_)) | (self.classes_[np.minimum(
            indices, len(self.classes_) - 1)] != y)
        if np.any(bad):
            raise ValueError(f"unseen labels: {unique_classes(y[bad])!r}")
        return indices

    def fit_transform(self, y):
        """Fit then transform in one call."""
        return self.fit(y).transform(y)

    def inverse_transform(self, indices):
        """Decode integer codes back to original labels."""
        return self.classes_[np.asarray(indices)]
