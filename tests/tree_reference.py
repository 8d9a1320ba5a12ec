"""Exact-equality oracle for the CART split-search kernel.

The per-feature split search that :meth:`DecisionTreeClassifier.
_best_split` replaced: one sort, one prefix-count matrix and one
impurity pass per candidate feature, scanned with a strict ``>`` so the
first feature and position reaching the best gain wins. Its impurities
reduce a last class axis, and ``predict`` normalises every leaf row
before its argmax. The one-pass kernel runs the same integer counts and
float operations for fewer than 8 classes, so the two must agree bit for
bit (``np.array_equal``), not to a tolerance.

:class:`ReferenceTree` grows and queries trees this way. :func:`best_split`
and :func:`predict` have the methods' signatures, so a test can also
patch them onto the class; :func:`best_split` ignores the kernel's
``impurity_fn`` and scores with the last-axis impurity of the tree's
criterion.
"""

import numpy as np

from repro.ml import DecisionTreeClassifier


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

#: The fitted arrays both searches must agree on, bit for bit.
FITTED = ("children_left_", "children_right_", "feature_", "threshold_",
          "value_")


def best_split(tree, X, y_enc, indices, n_classes, impurity_fn=None):
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


def predict(tree, X):
    """Majority-class prediction through normalised leaf rows."""
    return tree.classes_[np.argmax(tree.predict_proba(X), axis=1)]


class ReferenceTree(DecisionTreeClassifier):
    """The tree grown and queried the pre-kernel way."""

    _best_split = best_split
    predict = predict
