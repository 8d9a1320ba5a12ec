"""Exact-equality oracle for the ensemble tree kernel.

Trees grown and queried one at a time, the way the kernel in
:mod:`repro.ml.tree` replaced:

- :class:`ReferenceTree` grows on the rows it is given (a materialised
  bootstrap sample repeats rows) with a depth-first stack and a
  per-feature split search: one sort, one prefix-count matrix and one
  impurity pass per candidate feature, scanned with a strict ``>`` so
  the first feature and position reaching the best gain wins. Its
  impurities reduce a last class axis; it routes rows level by level
  through its own arrays, and ``predict`` normalises every leaf row
  before its argmax.
- :class:`ReferenceForest` and :class:`ReferenceBagging` draw each
  tree's seed and bootstrap sample in turn, fit a :class:`ReferenceTree`
  on the sample's rows, and loop over their trees to vote or average.

The kernel runs the same integer counts and float operations for fewer
than 8 classes, so every fitted array, vote and probability must agree
bit for bit (``np.array_equal``), not to a tolerance.
"""

import numpy as np

from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    RandomForestClassifier,
)
from repro.ml.utils import check_array, check_random_state, check_X_y

_LEAF = -1


def gini(counts):
    """Gini impurity of rows of class ``counts`` (last axis)."""
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proportions = np.where(total > 0, counts / total, 0.0)
    return 1.0 - np.sum(proportions**2, axis=-1)


def entropy(counts):
    """Shannon entropy of rows of class ``counts`` (last axis)."""
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proportions = np.where(total > 0, counts / total, 0.0)
        logs = np.where(proportions > 0, np.log2(proportions), 0.0)
    return -np.sum(proportions * logs, axis=-1)


CRITERIA = {"gini": gini, "entropy": entropy}

#: The fitted arrays the kernel and the oracle must agree on, bit for bit.
FITTED = ("children_left_", "children_right_", "feature_", "threshold_",
          "value_")


def best_split(tree, X, y_enc, indices, n_classes):
    """Return ``(feature, threshold, left_idx, right_idx)`` or ``None``."""
    impurity_fn = CRITERIA[tree.criterion]
    n_candidates = tree._n_split_features()
    if n_candidates < tree.n_features_in_:
        candidate_features = tree._rng.choice(
            tree.n_features_in_, size=n_candidates, replace=False
        )
    else:
        candidate_features = np.arange(tree.n_features_in_)

    y_node = y_enc[indices]
    parent_counts = np.bincount(y_node, minlength=n_classes).astype(float)
    n_node = len(indices)
    parent_impurity = impurity_fn(parent_counts)

    best_gain = 1e-12
    best = None
    for feature in candidate_features:
        column = X[indices, feature]
        order = np.argsort(column, kind="mergesort")
        sorted_vals = column[order]
        sorted_y = y_node[order]
        # Cumulative class counts for every prefix.
        one_hot = np.zeros((n_node, n_classes))
        one_hot[np.arange(n_node), sorted_y] = 1.0
        prefix = np.cumsum(one_hot, axis=0)
        # Valid split positions: between distinct values, honouring
        # min_samples_leaf on both sides.
        distinct = sorted_vals[1:] != sorted_vals[:-1]
        positions = np.nonzero(distinct)[0] + 1  # left size = position
        if positions.size == 0:
            continue
        leaf_ok = (positions >= tree.min_samples_leaf) & (
            n_node - positions >= tree.min_samples_leaf
        )
        positions = positions[leaf_ok]
        if positions.size == 0:
            continue
        left_counts = prefix[positions - 1]
        right_counts = parent_counts - left_counts
        n_left = positions.astype(float)
        n_right = n_node - n_left
        child_impurity = (
            n_left * impurity_fn(left_counts)
            + n_right * impurity_fn(right_counts)
        ) / n_node
        gains = parent_impurity - child_impurity
        best_pos = int(np.argmax(gains))
        if gains[best_pos] > best_gain:
            position = positions[best_pos]
            threshold = 0.5 * (
                sorted_vals[position - 1] + sorted_vals[position]
            )
            best_gain = gains[best_pos]
            left_mask = column <= threshold
            best = (
                int(feature),
                float(threshold),
                indices[left_mask],
                indices[~left_mask],
            )
    return best


class ReferenceTree(DecisionTreeClassifier):
    """A tree grown, routed and queried on its own."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        self._rng = check_random_state(self.random_state)
        children_left, children_right = [], []
        features, thresholds, value_rows = [], [], []
        n_classes = len(self.classes_)

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
            split = best_split(self, X, y_enc, indices, n_classes)
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

    def _leaf_indices(self, X):
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
            go_left = X[idx, self.feature_[current]] <= self.threshold_[current]
            nodes[idx] = np.where(
                go_left,
                self.children_left_[current],
                self.children_right_[current],
            )
            active[idx] = self.children_left_[nodes[idx]] != _LEAF
        return nodes

    def predict_proba(self, X):
        counts = self.value_[self._leaf_indices(X)]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / np.maximum(totals, 1e-12)

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


def stratified_bootstrap(y, rng):
    """Bootstrap indices, with one slot per class overwritten by a row of
    that class (a later class may overwrite an earlier one's slot)."""
    n = len(y)
    sample = rng.integers(0, n, size=n).tolist()
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        sample[int(rng.integers(0, n))] = int(members[rng.integers(0, len(members))])
    return np.asarray(sample)


def _tree_params(model):
    return {name: getattr(model, name) for name in (
        "criterion", "max_depth", "min_samples_split", "min_samples_leaf",
        "max_features")}


class ReferenceForest(RandomForestClassifier):
    """A random forest whose trees grow on materialised bootstrap samples."""

    def fit(self, X, y):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        self.n_features_in_ = X.shape[1]
        n = X.shape[0]
        self.estimators_ = []
        for _ in range(self.n_estimators):
            tree = ReferenceTree(
                random_state=int(rng.integers(0, 2**31 - 1)),
                **_tree_params(self),
            )
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                if len(np.unique(y[sample])) < len(self.classes_) and n > 1:
                    sample = stratified_bootstrap(y, rng)
                tree.fit(X[sample], y[sample])
            else:
                tree.fit(X, y)
            self.estimators_.append(tree)
        return self

    def predict_proba(self, X):
        X = check_array(X)
        total = np.zeros((X.shape[0], len(self.classes_)))
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.estimators_:
            proba = tree.predict_proba(X)
            for j, cls in enumerate(tree.classes_):
                total[:, class_index[cls]] += proba[:, j]
        return total / len(self.estimators_)


class ReferenceBagging(BaggingClassifier):
    """A tree committee grown on materialised stratified samples."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        base = self.base_estimator or DecisionTreeClassifier(max_depth=8)
        self.classes_ = np.unique(y)
        self.estimators_ = []
        for _ in range(self.n_estimators):
            tree = ReferenceTree(
                random_state=int(rng.integers(0, 2**31 - 1)),
                **_tree_params(base),
            )
            sample = stratified_bootstrap(y, rng)
            tree.fit(X[sample], y[sample])
            self.estimators_.append(tree)
        return self

    def vote_matrix(self, X):
        return np.vstack([tree.predict(X) for tree in self.estimators_])
