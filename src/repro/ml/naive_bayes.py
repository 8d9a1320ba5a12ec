"""Gaussian naive Bayes — a cheap committee member for bootstrap AL."""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin
from .utils import check_array, check_X_y, unique_classes

__all__ = ["GaussianNB"]


class GaussianNB(BaseEstimator, ClassifierMixin):
    """Per-class diagonal Gaussian likelihoods with Laplace-ish smoothing.

    Parameters
    ----------
    var_smoothing : float
        Fraction of the largest feature variance added to all variances
        for numerical stability (identical role to scikit-learn's knob).
    """

    def __init__(self, var_smoothing=1e-9):
        self.var_smoothing = var_smoothing

    def fit(self, X, y):
        """Estimate class priors, means and variances."""
        X, y = check_X_y(X, y)
        self.classes_ = unique_classes(y)
        n_classes = len(self.classes_)
        self.theta_ = np.zeros((n_classes, X.shape[1]))
        self.var_ = np.zeros((n_classes, X.shape[1]))
        self.class_prior_ = np.zeros(n_classes)
        for i, cls in enumerate(self.classes_):
            members = X[y == cls]
            self.theta_[i] = members.mean(axis=0)
            self.var_[i] = members.var(axis=0)
            self.class_prior_[i] = len(members) / len(X)
        self.var_ += self.var_smoothing * max(X.var(axis=0).max(), 1e-12)
        self.n_features_in_ = X.shape[1]
        return self

    def _joint_log_likelihood(self, X):
        X = check_array(X)
        jll = np.zeros((X.shape[0], len(self.classes_)))
        for i in range(len(self.classes_)):
            log_prior = np.log(self.class_prior_[i] + 1e-12)
            diff = X - self.theta_[i]
            log_like = -0.5 * np.sum(
                np.log(2 * np.pi * self.var_[i]) + diff**2 / self.var_[i],
                axis=1,
            )
            jll[:, i] = log_prior + log_like
        return jll

    def predict_proba(self, X):
        """Posterior probabilities via the log-sum-exp trick."""
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        likelihood = np.exp(jll)
        return likelihood / likelihood.sum(axis=1, keepdims=True)

    def predict(self, X):
        """Maximum a-posteriori class."""
        return self.classes_[np.argmax(self._joint_log_likelihood(X), axis=1)]
