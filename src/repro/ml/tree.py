"""CART decision-tree classifier (gini / entropy) implemented on numpy.

Split search scores every candidate feature in one pass: the node's
rows are stable-sorted column-wise, one cumulative sum gives the
class-first ``(n_classes, n - 1, k)`` counts left of every position,
and impurities reduce that leading class axis. Candidate thresholds are
the midpoints between consecutive distinct sorted values, so a node
costs ``O(k * n log n)`` in a fixed number of numpy calls.

Class-first is a speed choice: numpy reduces a short last axis one row
at a time, but sums a leading axis one whole slice per class. For fewer
than 8 classes it adds the class terms in the same order either way, so
gains (and therefore trees) match a per-feature, last-axis search bit
for bit; ``tests/tree_reference.py`` keeps that search as the oracle.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin
from .utils import check_array, check_random_state, check_X_y

__all__ = ["DecisionTreeClassifier"]

_LEAF = -1


def _gini(counts):
    """Gini impurity of class ``counts`` along axis 0 (class-first).

    Every caller's totals are positive: a node, and each child of a
    candidate split, holds at least one row.
    """
    proportions = counts / counts.sum(axis=0)
    return 1.0 - np.sum(proportions**2, axis=0)


def _entropy(counts):
    """Shannon entropy of class ``counts`` along axis 0 (class-first)."""
    proportions = counts / counts.sum(axis=0)
    with np.errstate(divide="ignore"):
        logs = np.where(proportions > 0, np.log2(proportions), 0.0)
    return -np.sum(proportions * logs, axis=0)


_CRITERIA = {"gini": _gini, "entropy": _entropy}


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """Binary/multiclass CART tree.

    Parameters
    ----------
    criterion : {"gini", "entropy"}
        Impurity measure for split selection.
    max_depth : int or None
        Maximum tree depth; ``None`` grows until pure or ``min_samples_*``.
    min_samples_split : int
        Minimum samples required to attempt a split.
    min_samples_leaf : int
        Minimum samples each child must keep.
    max_features : int, float, "sqrt", "log2" or None
        Number of features examined per split (random forests pass
        ``"sqrt"``); ``None`` uses all features.
    random_state : int or numpy.random.Generator, optional
        Seeds the feature subsampling.
    """

    def __init__(
        self,
        criterion="gini",
        max_depth=None,
        min_samples_split=2,
        min_samples_leaf=1,
        max_features=None,
        random_state=None,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # -- fitting ---------------------------------------------------------

    def fit(self, X, y, sample_weight=None):
        """Grow the tree on ``(X, y)``.

        ``sample_weight`` is accepted for API compatibility but only
        uniform weights are supported (ER training sets are re-sampled
        explicitly by the AL methods instead).
        """
        if self.criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        X, y = check_X_y(X, y)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if sample_weight.shape[0] != X.shape[0]:
                raise ValueError("sample_weight has wrong length")
            keep = sample_weight > 0
            X, y = X[keep], y[keep]
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        self._rng = check_random_state(self.random_state)

        # Flat array representation: children indices, feature, threshold,
        # and per-node class counts. Grown depth-first with an explicit
        # stack to avoid recursion limits on deep trees.
        children_left, children_right = [], []
        features, thresholds, value_rows = [], [], []

        n_classes = len(self.classes_)
        impurity_fn = _CRITERIA[self.criterion]

        def new_node():
            children_left.append(_LEAF)
            children_right.append(_LEAF)
            features.append(_LEAF)
            thresholds.append(0.0)
            value_rows.append(np.zeros(n_classes))
            return len(children_left) - 1

        root = new_node()
        stack = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node, indices, depth = stack.pop()
            counts = np.bincount(y_enc[indices], minlength=n_classes).astype(float)
            value_rows[node] = counts
            if (
                len(indices) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or counts.max() == counts.sum()
            ):
                continue
            split = self._best_split(X, y_enc, indices, n_classes, impurity_fn)
            if split is None:
                continue
            feature, threshold, left_idx, right_idx = split
            features[node] = feature
            thresholds[node] = threshold
            left = new_node()
            right = new_node()
            children_left[node] = left
            children_right[node] = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))

        self.children_left_ = np.asarray(children_left, dtype=np.int64)
        self.children_right_ = np.asarray(children_right, dtype=np.int64)
        self.feature_ = np.asarray(features, dtype=np.int64)
        self.threshold_ = np.asarray(thresholds, dtype=np.float64)
        self.value_ = np.vstack(value_rows)
        self.n_nodes_ = len(children_left)
        del self._rng
        return self

    def _n_split_features(self):
        n = self.n_features_in_
        mf = self.max_features
        if mf is None:
            return n
        if mf == "sqrt":
            return max(1, int(np.sqrt(n)))
        if mf == "log2":
            return max(1, int(np.log2(n)))
        if isinstance(mf, float):
            return max(1, min(n, int(mf * n)))
        return max(1, min(n, int(mf)))

    def _best_split(self, X, y_enc, indices, n_classes, impurity_fn):
        """Return ``(feature, threshold, left_idx, right_idx)`` or ``None``.

        Scores every split position of every candidate feature at once.
        Row ``i`` of the ``(n - 1, k)`` gain matrix splits after the
        ``i + 1`` smallest values of a column; it is a candidate when
        its two neighbours differ and both children keep
        ``min_samples_leaf`` rows. The winner is the largest gain above
        ``1e-12``, ties going to the earlier feature (in draw order),
        then the earlier position: the split a per-feature scan with a
        strict ``>`` keeps.
        """
        n_candidates = self._n_split_features()
        if n_candidates < self.n_features_in_:
            features = self._rng.choice(
                self.n_features_in_, size=n_candidates, replace=False
            )
        else:
            features = np.arange(self.n_features_in_)

        n_node = len(indices)
        block = X[indices][:, features]
        order = np.argsort(block, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(block, order, axis=0)
        y_node = y_enc[indices]
        sorted_y = y_node[order[:-1]]
        classes = np.arange(n_classes)[:, None, None]
        left_counts = np.cumsum(sorted_y == classes, axis=1).astype(float)
        parent_counts = np.bincount(y_node, minlength=n_classes).astype(float)
        right_counts = parent_counts[:, None, None] - left_counts
        n_left = np.arange(1.0, n_node)[:, None]
        n_right = n_node - n_left
        gains = impurity_fn(parent_counts) - (
            n_left * impurity_fn(left_counts)
            + n_right * impurity_fn(right_counts)
        ) / n_node
        splittable = (
            (sorted_vals[1:] != sorted_vals[:-1])
            & (n_left >= self.min_samples_leaf)
            & (n_right >= self.min_samples_leaf)
        )
        gains[~splittable] = -np.inf
        # Flattening the transpose orders candidates feature-major, so
        # argmax's first maximum is the scan's first.
        column, row = divmod(int(np.argmax(gains.T)), n_node - 1)
        if not gains[row, column] > 1e-12:
            return None
        threshold = 0.5 * (sorted_vals[row, column] + sorted_vals[row + 1, column])
        left_mask = block[:, column] <= threshold
        return (
            int(features[column]),
            float(threshold),
            indices[left_mask],
            indices[~left_mask],
        )

    # -- prediction ------------------------------------------------------

    def _leaf_indices(self, X):
        """Vectorised routing of every row of ``X`` to its leaf node."""
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self.children_left_[nodes] != _LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            current = nodes[idx]
            go_left = (
                X[idx, self.feature_[current]] <= self.threshold_[current]
            )
            nodes[idx] = np.where(
                go_left,
                self.children_left_[current],
                self.children_right_[current],
            )
            active[idx] = self.children_left_[nodes[idx]] != _LEAF
        return nodes

    def predict_proba(self, X):
        """Class probabilities from leaf class frequencies."""
        leaves = self._leaf_indices(X)
        counts = self.value_[leaves]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / np.maximum(totals, 1e-12)

    def predict(self, X):
        """Majority-class prediction: the argmax of each leaf's counts.

        Leaf totals are positive, so this is the argmax of
        :meth:`predict_proba` without normalising every row.
        """
        leaves = self._leaf_indices(X)
        return self.classes_[np.argmax(self.value_.T[:, leaves], axis=0)]

    @property
    def tree_depth_(self):
        """Depth of the fitted tree (root = 0)."""
        depth = np.zeros(self.n_nodes_, dtype=int)
        for node in range(self.n_nodes_):
            for child in (self.children_left_[node], self.children_right_[node]):
                if child != _LEAF:
                    depth[child] = depth[node] + 1
        return int(depth.max()) if self.n_nodes_ else 0
