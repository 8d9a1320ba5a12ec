"""Random forests and bagged tree committees on the ensemble tree kernel.

The paper's MoRER, Almser and Bootstrap implementations all use
scikit-learn random forests as the underlying classifier; this is the
drop-in replacement. Both ensembles draw their trees' seeds and
bootstrap samples one tree after another, as a per-tree loop would, and
hand the draw counts to :func:`repro.ml.tree.grow_trees`, which grows
every tree together; prediction routes all trees at once through
:class:`repro.ml.tree.TreeEnsemble`. A random forest serialises as one
ensemble too (:meth:`RandomForestClassifier.to_dict`): the trees' node
arrays concatenated, with nothing a tree shares with its forest
repeated per tree.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, _encode
from .tree import (
    _GROWTH_PARAMS,
    DecisionTreeClassifier,
    TreeEnsemble,
    _spread,
    grow_trees,
)
from .utils import check_random_state, check_X_y

__all__ = ["RandomForestClassifier", "BaggingClassifier"]

#: The node arrays a serialised forest holds, each concatenated over
#: the trees in tree order, with the dtype the tree kernel gives them.
_NODE_ARRAYS = {
    "children_left": np.int64, "children_right": np.int64,
    "feature": np.int64, "threshold": np.float64, "value": np.float64,
}


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap-aggregated CART trees with per-split feature subsampling.

    Parameters
    ----------
    n_estimators : int
        Number of trees.
    criterion, max_depth, min_samples_split, min_samples_leaf, max_features
        Passed to each tree; ``max_features`` defaults to ``"sqrt"``.
    bootstrap : bool
        Sample the training set with replacement per tree.
    random_state : int or numpy.random.Generator, optional
        Seeds both the bootstrap draws and tree feature subsampling.
    """

    def __init__(
        self,
        n_estimators=30,
        criterion="gini",
        max_depth=None,
        min_samples_split=2,
        min_samples_leaf=1,
        max_features="sqrt",
        bootstrap=True,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y):
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``."""
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        n = X.shape[0]
        members = _class_members(y_enc, len(self.classes_))
        trees = []
        weights = np.ones((self.n_estimators, n), dtype=np.int64)
        for tree_weights in weights:
            trees.append(DecisionTreeClassifier(
                criterion=self.criterion,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            ))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                # Guard against degenerate single-class bootstrap samples
                # which would make the tree useless for probabilities.
                if n > 1 and not np.bincount(
                        y_enc[sample], minlength=len(members)).all():
                    sample = _stratified_bootstrap(n, members, rng)
                tree_weights[:] = np.bincount(sample, minlength=n)
        self.estimators_ = grow_trees(X, y_enc, self.classes_, weights, trees)
        self._ensemble = None
        return self

    def predict_proba(self, X):
        """Average class probabilities over trees, aligned to ``classes_``."""
        ensemble = TreeEnsemble.of(self, self.estimators_)
        return ensemble.proba_sum(X) / len(self.estimators_)

    def predict(self, X):
        """Majority-probability prediction."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def to_dict(self):
        """Serialise the forest as one ensemble, each fact once.

        Beside the params and the forest's fitted ``classes_`` and
        ``n_features_in_``, ``"trees"`` holds each tree's
        ``random_state`` and ``n_nodes`` and the five node arrays
        (:data:`_NODE_ARRAYS`), each concatenated in tree order as one
        flat list (``value`` row by row over the forest's classes, 0
        where a tree lacks a class). The rest of a tree follows: its
        growth params are the forest's, and its ``classes_`` are those
        its root counts. An unfitted forest serialises as any estimator
        does.
        """
        trees = getattr(self, "estimators_", None)
        if trees is None:
            return super().to_dict()
        columns = zip(*(
            (tree.children_left_, tree.children_right_, tree.feature_,
             tree.threshold_,
             _spread(tree.value_, tree.classes_, self.classes_, fill=0.0))
            for tree in trees
        ))
        return {
            "__class__": type(self).__name__,
            "params": self.get_params(),
            "fitted": {
                "classes_": _encode(self.classes_),
                "n_features_in_": self.n_features_in_,
            },
            "trees": {
                "random_state": [tree.random_state for tree in trees],
                "n_nodes": [tree.n_nodes_ for tree in trees],
                **{
                    name: np.concatenate(column).ravel().tolist()
                    for name, column in zip(_NODE_ARRAYS, columns)
                },
            },
        }

    @classmethod
    def from_dict(cls, state):
        """Rebuild a forest serialised with :meth:`to_dict`, handing
        each tree its slice of the node arrays through the kernel's own
        ``_set_fitted``, so the trees equal the fitted ones."""
        forest = super().from_dict(state)
        trees = state.get("trees")
        if trees is None:
            return forest
        classes = forest.classes_
        columns = [
            np.asarray(trees[name], dtype=dtype)
            for name, dtype in _NODE_ARRAYS.items()
        ]
        columns[-1] = columns[-1].reshape(-1, len(classes))
        params = {name: getattr(forest, name) for name in _GROWTH_PARAMS}
        ends = np.cumsum(trees["n_nodes"]).tolist()
        forest.estimators_ = [
            DecisionTreeClassifier(**params, random_state=seed)._set_fitted(
                classes, forest.n_features_in_,
                [column[end - n_nodes:end] for column in columns],
            )
            for seed, n_nodes, end in zip(
                trees["random_state"], trees["n_nodes"], ends)
        ]
        forest._ensemble = None
        return forest


def _class_members(y_enc, n_classes):
    """Each class's row indices, in class order."""
    return [np.flatnonzero(y_enc == c) for c in range(n_classes)]


def _stratified_bootstrap(n, members, rng):
    """Bootstrap indices meant to contain every class at least once.

    Each class in turn writes one of its ``members`` rows over a random
    slot, so a later class can overwrite an earlier class's only slot.
    """
    sample = rng.integers(0, n, size=n)
    for rows in members:
        sample[rng.integers(0, n)] = rows[rng.integers(0, len(rows))]
    return sample


class BaggingClassifier(BaseEstimator, ClassifierMixin):
    """Bootstrap aggregation of CART trees: a voting committee.

    Used by the Bootstrap AL method (Mozafari et al.): ``k`` trees
    trained on resamples of the labelled pool vote on every unlabelled
    feature vector, and the vote split defines the uncertainty (Eq. 10).
    ``base_estimator`` is the template :class:`DecisionTreeClassifier`
    whose parameters every tree takes (default ``max_depth=8``).
    """

    def __init__(self, base_estimator=None, n_estimators=10, random_state=None):
        self.base_estimator = base_estimator
        self.n_estimators = n_estimators
        self.random_state = random_state

    def fit(self, X, y):
        """Fit ``n_estimators`` trees on stratified bootstrap resamples."""
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        base = self.base_estimator or DecisionTreeClassifier(max_depth=8)
        if not isinstance(base, DecisionTreeClassifier):
            raise TypeError("base_estimator must be a DecisionTreeClassifier")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n = X.shape[0]
        members = _class_members(y_enc, len(self.classes_))
        params = base.get_params()
        trees = []
        weights = np.empty((self.n_estimators, n), dtype=np.int64)
        for tree_weights in weights:
            params["random_state"] = int(rng.integers(0, 2**31 - 1))
            trees.append(DecisionTreeClassifier(**params))
            tree_weights[:] = np.bincount(
                _stratified_bootstrap(n, members, rng), minlength=n)
        self.estimators_ = grow_trees(X, y_enc, self.classes_, weights, trees)
        self._ensemble = None
        return self

    def vote_matrix(self, X):
        """Return the ``(n_estimators, n_samples)`` matrix of hard votes."""
        return TreeEnsemble.of(self, self.estimators_).votes(X)

    def predict_proba(self, X):
        """Vote shares per class, aligned to ``classes_``."""
        votes = self.vote_matrix(X)
        proba = np.zeros((votes.shape[1], len(self.classes_)))
        for i, cls in enumerate(self.classes_):
            proba[:, i] = np.mean(votes == cls, axis=0)
        return proba

    def predict(self, X):
        """Majority vote."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
