"""Logistic regression trained with L-BFGS-free full-batch gradient descent.

Used as the classifier of the classifier two-sample test (C2ST, §4.2) and
available as an alternative cluster model. Pure numpy; supports L2
regularisation and balanced class weighting.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin
from .utils import check_array, check_X_y, unique_classes

__all__ = ["LogisticRegression"]


def _sigmoid(z):
    # Clipping keeps exp() finite without changing the optimum measurably.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary logistic regression.

    Parameters
    ----------
    C : float
        Inverse L2 regularisation strength (as in scikit-learn).
    max_iter : int
        Maximum gradient steps.
    tol : float
        Stop when the gradient norm falls below this value.
    lr : float
        Initial learning rate; adapted with simple backtracking.
    class_weight : None or "balanced"
        "balanced" reweights samples inversely to class frequency, which
        matters for ER where non-matches dominate.
    fit_intercept : bool
        Learn a bias term.
    """

    def __init__(
        self,
        C=1.0,
        max_iter=300,
        tol=1e-6,
        lr=0.5,
        class_weight=None,
        fit_intercept=True,
    ):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.lr = lr
        self.class_weight = class_weight
        self.fit_intercept = fit_intercept

    def fit(self, X, y):
        """Fit by full-batch gradient descent with backtracking line search."""
        X, y = check_X_y(X, y)
        self.classes_ = unique_classes(y)
        if len(self.classes_) == 1:
            # Degenerate single-class training data: predict the constant.
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 0.0
            self.n_features_in_ = X.shape[1]
            return self
        if len(self.classes_) != 2:
            raise ValueError("LogisticRegression supports binary targets only")
        self.n_features_in_ = X.shape[1]
        target = (y == self.classes_[1]).astype(float)

        n = X.shape[0]
        weights = np.ones(n)
        if self.class_weight == "balanced":
            pos = target.sum()
            neg = n - pos
            if pos > 0 and neg > 0:
                weights = np.where(target == 1.0, n / (2 * pos), n / (2 * neg))
        weights = weights / weights.sum() * n

        w = np.zeros(X.shape[1])
        b = 0.0
        alpha = 1.0 / (self.C * n)
        lr = self.lr
        previous_loss = np.inf
        for _ in range(self.max_iter):
            z = X @ w + b
            p = _sigmoid(z)
            error = weights * (p - target)
            grad_w = X.T @ error / n + alpha * w
            grad_b = error.mean() if self.fit_intercept else 0.0
            grad_norm = np.sqrt(np.sum(grad_w**2) + grad_b**2)
            if grad_norm < self.tol:
                break
            w -= lr * grad_w
            b -= lr * grad_b
            loss = self._loss(X, target, weights, w, b, alpha)
            if loss > previous_loss:
                # Step was too large; shrink and partially revert.
                lr *= 0.5
                w += 0.5 * lr * grad_w
                b += 0.5 * lr * grad_b
            previous_loss = loss
        self.coef_ = w
        self.intercept_ = float(b)
        return self

    @staticmethod
    def _loss(X, target, weights, w, b, alpha):
        p = _sigmoid(X @ w + b)
        eps = 1e-12
        nll = -np.mean(
            weights
            * (target * np.log(p + eps) + (1 - target) * np.log(1 - p + eps))
        )
        return nll + 0.5 * alpha * np.sum(w**2)

    def decision_function(self, X):
        """Raw logits."""
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        """Probabilities aligned to ``classes_``."""
        if len(self.classes_) == 1:
            return np.ones((check_array(X).shape[0], 1))
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1 - p1, p1])

    def predict(self, X):
        """Threshold probabilities at 0.5."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]
