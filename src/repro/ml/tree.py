"""CART decision trees (gini / entropy), grown and routed as ensembles.

One kernel serves :class:`DecisionTreeClassifier` (an ensemble of one
tree with unit weights), :class:`~repro.ml.forest.RandomForestClassifier`
and :class:`~repro.ml.forest.BaggingClassifier`.

Growing (:func:`grow_trees`). The training matrix is sorted once per
fit, column by column. A tree is its multiplicity vector over the
training rows (its bootstrap draw counts); every node keeps its distinct
rows in one sorted list per feature, and a split hands each child its
part of every list by stable partition, so no node sorts again. Trees
advance in lock step: each pops one node per step from its own
depth-first stack, so node numbering and each tree's feature draws are
those of a tree grown alone, while one segmented numpy pass scores the
candidate splits of every popped node from weighted prefix class
counts. (Trees that draw no features pop their whole stack per step
and are renumbered afterwards; see :class:`_LockStep`.) A group of
trees holds at most :data:`_GROUP_CELLS` (training row, feature) cells
in all, so the lock step's working set stays bounded however many trees
a forest has and however wide its rows are. Thresholds are midpoints
between consecutive distinct values, and a split's gain depends only on
the class counts either side of it, so growing from multiplicities
gives the tree of the materialised bootstrap sample. Class counts are
class-first ``(n_classes, …)`` and impurities reduce that leading axis:
for fewer than 8 classes numpy adds the class terms in the same order
as a per-node, last-axis reduction, so gains (and therefore trees)
match a per-tree, per-feature search bit for bit;
``tests/tree_reference.py`` keeps that search as the oracle.

Memory. Every group reads one feature-major copy of the training
matrix and one label array. A group holds, per (tree, training row,
feature) cell, the int32 key of each drawn row in that feature's sorted
list (4 bytes per drawn cell, about 2.5 per cell under bootstrap draws)
and a one-byte flag per (tree, row). A step's temporaries come to about
72 bytes per element it scores (a node's row under one candidate
feature), two classes: 8 for the element's value and 64 for each
candidate boundary's position, node, left and right class counts, left
total and impurity. Each is dropped after its last reader, and the
impurities overwrite the counts they are given. On perfbench's
similarity data (NumPy 2.4), ``grow_trees`` peaks at 1.23 MB of traced
allocation for a 30-tree forest on 420 rows of 6 features (two groups)
and at 1.00 MB for a 10-tree committee on 335 rows (one group).

Prediction (:class:`TreeEnsemble`). The trees' node arrays are
concatenated once per fitted model, and every (tree, row) pair descends
one level per numpy pass; votes and probabilities come from per-node
tables, and probabilities are summed over the trees in tree order.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin
from .utils import check_array, check_random_state, check_X_y

__all__ = ["DecisionTreeClassifier", "TreeEnsemble", "grow_trees"]

_LEAF = -1
#: Trees grow in groups of at most this many (training row, feature)
#: cells in all (one tree at least), which bounds the lock step's
#: working set: a group holds at most 4 bytes per cell plus a byte per
#: (tree, row), and a step's temporaries, about 72 bytes per scored
#: element, scale with its rows times the features drawn. At 2**16 a
#: 10-tree committee on 335 rows of 6 features grows as one group
#: (traced peak 1.00 MB) and a 30-tree forest on 420 rows in two
#: (1.23 MB); see the module docstring.
_GROUP_CELLS = 1 << 16
#: Prediction routes at most this many (tree, row) pairs per pass.
_ROUTE_PAIRS = 1 << 16
#: Constructor parameters that shape a tree's growth.
_GROWTH_PARAMS = ("criterion", "max_depth", "min_samples_split",
                  "min_samples_leaf", "max_features")


def _gini(counts, totals):
    """Gini impurity of class ``counts`` along axis 0 (class-first),
    whose sums along that axis are ``totals``. Overwrites ``counts``.

    Every caller's totals are positive: a node, and each child of a
    candidate split, holds at least one row.
    """
    proportions = np.divide(counts, totals, out=counts)
    np.square(proportions, out=proportions)
    impurity = np.sum(proportions, axis=0)
    return np.subtract(1.0, impurity, out=impurity)


def _entropy(counts, totals):
    """Shannon entropy of class ``counts`` along axis 0 (class-first),
    whose sums along that axis are ``totals``. Overwrites ``counts``."""
    proportions = np.divide(counts, totals, out=counts)
    logs = np.log2(proportions, out=np.zeros_like(proportions),
                   where=proportions > 0)
    proportions *= logs
    impurity = np.sum(proportions, axis=0)
    return np.negative(impurity, out=impurity)


_CRITERIA = {"gini": _gini, "entropy": _entropy}


def _n_split_features(max_features, n_features):
    """Number of features a split examines under ``max_features``."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, float):
        return max(1, min(n_features, int(max_features * n_features)))
    return max(1, min(n_features, int(max_features)))


def _ranges(starts, lengths):
    """``concatenate([arange(a, a + n) for a, n in zip(starts, lengths)])``
    as int32 positions."""
    ends = np.cumsum(lengths)
    positions = np.repeat((starts - ends + lengths).astype(np.int32), lengths)
    positions += np.arange(len(positions), dtype=np.int32)
    return positions


def grow_trees(X, y_enc, classes, weights, trees):
    """Grow ``trees`` in lock step, tree ``t`` on multiplicities
    ``weights[t]``; returns ``trees``, fitted.

    Parameters
    ----------
    X : ndarray (n, k)
        Validated training matrix, shared by every tree.
    y_enc : ndarray (n,)
        Labels encoded as indices into ``classes``.
    classes : ndarray
        The ensemble's sorted classes. A tree whose rows miss a class
        gets the present ones as its ``classes_``.
    weights : ndarray (n_trees, n) of int
        Each tree's multiplicity per training row.
    trees : list of DecisionTreeClassifier
        Unfitted trees with the same growth parameters; each one's
        ``random_state`` seeds its feature draws (a generator is only
        made when a split examines fewer than all features).
    """
    params = {name: getattr(trees[0], name) for name in _GROWTH_PARAMS}
    if params["criterion"] not in _CRITERIA:
        raise ValueError(f"unknown criterion {params['criterion']!r}")
    n_features = X.shape[1]
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    columns = np.ascontiguousarray(X.T)
    group = max(1, _GROUP_CELLS // X.size)
    for start in range(0, len(trees), group):
        members = trees[start:start + group]
        grown = _LockStep(columns, order, y_enc, len(classes),
                          weights[start:start + group], members,
                          params).grow()
        for tree, arrays in zip(members, grown):
            tree._set_fitted(classes, n_features, arrays)
    return trees


class _LockStep:
    """One group of trees growing together.

    Sample key ``t * n + r`` (int32) names tree ``t``'s copy of
    training row ``r``: its row is ``key % n``, its multiplicity
    ``weights.flat[key]``. The group reads the one feature-major copy
    of the training matrix and the one label array every group shares.
    ``perm`` holds one row per feature, each with the keys of every
    tree's distinct rows sorted by that feature; a node owns the same
    column range ``[lo, hi)`` in every row, and splitting it partitions
    that range in place: rows at or below the threshold first, each
    side keeping its order. A node is pushed on its tree's stack only
    if it may split; leaves are settled when created.

    A tree that draws features pops one node per step, so its draws
    follow its depth-first order. A tree that examines every feature
    splits each node the same way whenever it is popped, so it pops its
    whole stack per step, and its nodes are renumbered into depth-first
    order at the end.
    """

    def __init__(self, columns, order, labels, n_classes, weights, trees,
                 params):
        n_features, n = columns.shape
        n_trees = len(weights)
        self.n, self.n_features, self.n_classes = n, n_features, n_classes
        self.params = params
        self.impurity = _CRITERIA[params["criterion"]]
        self.n_drawn = _n_split_features(params["max_features"], n_features)
        self.random_states = [tree.random_state for tree in trees]
        self.rngs = [None] * n_trees
        self.columns = columns.ravel()   # feature f of row r at f * n + r
        self.labels = labels
        self.key_weight = weights.ravel()
        present = weights > 0
        sizes = present.sum(axis=1)
        self.width = int(sizes.sum())
        keys = np.arange(n_trees * n, dtype=np.int32).reshape(n_trees, n)
        self.perm = np.empty((n_features, self.width), dtype=np.int32)
        for f, rows in enumerate(order):
            self.perm[f] = keys[:, rows][present[:, rows]]
        del keys, present
        self.goes_left = np.zeros(n_trees * n, dtype=bool)
        counts = (weights @ (labels[:, None] == np.arange(n_classes))).astype(
            np.float64)
        self.n_nodes = [1] * n_trees
        self.visits = [(np.arange(n_trees), np.zeros(n_trees, np.int64),
                        counts)]   # (tree, node, class counts) per step
        self.splits = []   # (tree, node, feature, threshold, left) per step
        self.reorder = set()   # trees that split two nodes in one step
        sizes = sizes.tolist()
        lows = np.cumsum([0] + sizes[:-1]).tolist()
        leaf = self._is_leaf(counts, 0).tolist()
        # Stack entries: (node, lo, hi, depth, class counts).
        self.stacks = [
            [] if leaf[t] else [(0, lows[t], lows[t] + sizes[t], 0, counts[t])]
            for t in range(n_trees)
        ]

    def _is_leaf(self, counts, depth):
        """Nodes that stay leaves: too few rows, pure, or at max depth."""
        total = counts.sum(axis=1)
        leaf = (total < self.params["min_samples_split"]) | (
            counts.max(axis=1) == total)
        if self.params["max_depth"] is not None:
            leaf |= depth >= self.params["max_depth"]
        return leaf

    def grow(self):
        """Run every tree to completion; returns each tree's arrays."""
        whole_stack = self.n_drawn >= self.n_features
        while True:
            popped = []
            for t, stack in enumerate(self.stacks):
                if whole_stack:
                    popped.extend((t, *entry) for entry in stack)
                    stack.clear()
                elif stack:
                    popped.append((t, *stack.pop()))
            if not popped:
                return self._assemble()
            tree, node, lo, hi, depth, counts = zip(*popped)
            self._step(np.array(tree), np.array(node), np.array(lo),
                       np.array(hi), np.array(depth), np.array(counts))

    def _step(self, tree, node, lo, hi, depth, counts):
        """Split every popped node that has a split worth taking."""
        best = self._best_splits(tree, lo, hi - lo, counts)
        if best is None:
            return
        split, feature, threshold = best
        tree, node, lo, hi = tree[split], node[split], lo[split], hi[split]
        depth = depth[split] + 1
        n_left, child_counts = self._partition(lo, hi - lo, feature,
                                               threshold)
        leaf = self._is_leaf(child_counts, np.repeat(depth, 2)).tolist()
        # Popped nodes come tree by tree, so a tree's splits are adjacent.
        self.reorder.update(tree[1:][tree[1:] == tree[:-1]].tolist())
        left = []
        for i, (t, a, m, b, d) in enumerate(zip(
                tree.tolist(), lo.tolist(), (lo + n_left).tolist(),
                hi.tolist(), depth.tolist())):
            child = self.n_nodes[t]
            self.n_nodes[t] = child + 2
            left.append(child)
            stack = self.stacks[t]
            if not leaf[2 * i]:
                stack.append((child, a, m, d, child_counts[2 * i]))
            if not leaf[2 * i + 1]:
                stack.append((child + 1, m, b, d, child_counts[2 * i + 1]))
        left = np.array(left)
        self.splits.append((tree, node, feature, threshold, left))
        self.visits.append((np.repeat(tree, 2),
                            np.stack([left, left + 1], axis=1).ravel(),
                            child_counts))

    def _draw(self, trees):
        """Each node's candidate features, in draw order (flat)."""
        n_features, n_drawn = self.n_features, self.n_drawn
        if n_drawn >= n_features:
            return np.tile(np.arange(n_features), len(trees))
        draws = []
        for t in trees.tolist():
            rng = self.rngs[t]
            if rng is None:
                rng = self.rngs[t] = check_random_state(self.random_states[t])
            draws.append(rng.choice(n_features, size=n_drawn, replace=False))
        return np.concatenate(draws)

    def _rows(self, keys):
        """The training row of each of ``keys``, as an index array."""
        rows = keys.astype(np.intp)
        rows -= keys // self.n * self.n
        return rows

    def _best_splits(self, tree, lo, size, counts):
        """Score every candidate split of the popped nodes in one pass.

        A segment is one (node, candidate feature) pair: the node's keys
        sorted by that feature. Boundary ``e`` of a segment splits it
        after its element ``e``; it is a candidate when the next
        element's value differs and both sides keep ``min_samples_leaf``
        rows (by weight). Each node takes the largest gain above
        ``1e-12``, ties going to the earlier feature in draw order, then
        the earlier boundary: the split a per-feature scan with a strict
        ``>`` keeps. Each per-element or per-boundary temporary is
        dropped after its last reader, and the impurities overwrite the
        counts they are given.

        Returns ``(nodes, features, thresholds)`` for the nodes that
        split (``nodes`` index the popped ones), or ``None``.
        """
        n_drawn = self.n_drawn
        feature = self._draw(tree)
        seg_size = np.repeat(size, n_drawn)
        seg_end = np.cumsum(seg_size)
        keys = np.take(self.perm, _ranges(
            feature * self.width + np.repeat(lo, n_drawn), seg_size))
        at = self._rows(keys)
        label = self.labels[at]
        at += np.repeat(feature * self.n, seg_size)
        values = self.columns[at]
        del at
        differs = values[1:] != values[:-1]
        differs[seg_end[:-1] - 1] = False
        boundary = np.flatnonzero(differs)
        del differs
        if not boundary.size:
            return None
        # Class-first weighted counts, summed up to each element of its
        # segment: a segment's first element also carries minus the
        # previous segment's total (that node's class counts). The sums
        # are integers, so floating point holds them exactly.
        parent = counts.T
        running = np.empty((self.n_classes, len(keys)))
        weight = np.take(self.key_weight, keys)
        del keys
        for c in range(self.n_classes):
            np.multiply(label == c, weight, out=running[c])
        del weight, label
        running[:, seg_end[:-1]] -= np.repeat(parent, n_drawn, axis=1)[:, :-1]
        np.cumsum(running, axis=1, out=running)
        left = np.take(running, boundary, axis=1)
        del running
        n_left = left.sum(axis=0)
        # Boundaries are sorted, so each node's run of them ends where
        # its last segment does.
        runs = np.searchsorted(boundary, seg_end[n_drawn - 1::n_drawn])
        runs[1:] -= runs[:-1].copy()
        b_node = np.repeat(np.arange(len(tree)), runs)
        n_node = counts.sum(axis=1)
        leaf_min = self.params["min_samples_leaf"]
        if leaf_min > 1:
            keep = (n_left >= leaf_min) & (n_node[b_node] - n_left >= leaf_min)
            boundary, b_node = boundary[keep], b_node[keep]
            if not boundary.size:
                return None
            left, n_left = left[:, keep], n_left[keep]
        # gains = impurity(parent) - (n_left * impurity(left)
        #                             + n_right * impurity(right)) / n_node,
        # a child's totals being its class counts' sum, exactly.
        right = np.take(parent, b_node, axis=1)
        right -= left
        impurity = self.impurity
        gains = impurity(left, n_left)
        del left
        gains *= n_left
        n_right = np.subtract(n_node[b_node], n_left, out=n_left)
        right_terms = impurity(right, n_right)
        del right
        right_terms *= n_right
        gains += right_terms
        del right_terms, n_right
        gains /= n_node[b_node]
        np.subtract(impurity(parent.copy(order="K"), n_node)[b_node], gains,
                    out=gains)
        # Boundaries run node by node, then in draw and sorted order:
        # each node's first maximum is the scan's pick.
        change = np.empty(len(gains), dtype=bool)
        change[0] = True
        np.not_equal(b_node[1:], b_node[:-1], out=change[1:])
        first = np.flatnonzero(change)
        node_best = np.empty(len(tree))
        node_best[b_node[first]] = np.maximum.reduceat(gains, first)
        hits = np.flatnonzero(gains == node_best[b_node])
        hit_node = b_node[hits]
        hits = hits[np.concatenate(([True], hit_node[1:] != hit_node[:-1]))]
        pick = hits[gains[hits] > 1e-12]
        if not pick.size:
            return None
        at = boundary[pick]
        threshold = 0.5 * (values[at] + values[at + 1])
        segment = np.searchsorted(seg_end, at, side="right")
        return b_node[pick], feature[segment], threshold

    def _partition(self, lo, size, feature, threshold):
        """Split each node's range in every feature row. Returns the
        left sizes (distinct rows) and the children's class counts, left
        and right child of each node in turn."""
        n_features, n_classes = self.n_features, self.n_classes
        block = np.take(self.perm, _ranges(lo, size), axis=1)
        members = block[0]
        at = self._rows(members)
        label = self.labels[at]
        at += np.repeat(feature * self.n, size)
        goes_left = self.columns[at] <= np.repeat(threshold, size)
        del at
        self.goes_left[members] = goes_left
        n_left = np.add.reduceat(goes_left, np.cumsum(size) - size,
                                 dtype=np.int64)
        child = 2 * np.repeat(np.arange(len(lo)), size) + ~goes_left
        child_counts = np.bincount(
            child * n_classes + label,
            weights=np.take(self.key_weight, members),
            minlength=2 * len(lo) * n_classes,
        ).reshape(-1, n_classes)
        del child, label
        # Each feature row holds every node's keys, so each row sends the
        # same number of them left.
        is_left = np.take(self.goes_left, block).ravel()
        self.perm[:, _ranges(lo, n_left)] = np.compress(
            is_left, block).reshape(n_features, -1)
        np.logical_not(is_left, out=is_left)
        self.perm[:, _ranges(lo + n_left, size - n_left)] = np.compress(
            is_left, block).reshape(n_features, -1)
        return n_left, child_counts

    def _assemble(self):
        """Per tree: ``(children_left, children_right, feature,
        threshold, value)`` in node order. A tree that split two nodes
        in one step is renumbered into depth-first order (one split per
        step can only follow a path, which is depth-first already)."""
        n_nodes = np.array(self.n_nodes)
        first = np.cumsum(n_nodes) - n_nodes
        size = int(n_nodes.sum())
        children_left = np.full(size, _LEAF, dtype=np.int64)
        children_right = np.full(size, _LEAF, dtype=np.int64)
        features = np.full(size, _LEAF, dtype=np.int64)
        thresholds = np.zeros(size)
        values = np.zeros((size, self.n_classes))
        tree, node, counts = (np.concatenate(c) for c in zip(*self.visits))
        values[first[tree] + node] = counts
        if self.splits:
            tree, node, feature, threshold, left = (
                np.concatenate(c) for c in zip(*self.splits))
            at = first[tree] + node
            children_left[at] = left
            children_right[at] = left + 1
            features[at] = feature
            thresholds[at] = threshold
        trees = []
        for t, (a, b) in enumerate(zip(first.tolist(),
                                       (first + n_nodes).tolist())):
            arrays = (children_left[a:b], children_right[a:b], features[a:b],
                      thresholds[a:b], values[a:b])
            trees.append(_depth_first(*arrays) if t in self.reorder
                         else arrays)
        return trees


def _depth_first(children_left, children_right, feature, threshold, value):
    """The tree's arrays with nodes numbered as a tree grown one node at
    a time numbers them: a split hands its children the next two ids,
    and nodes are split in depth-first order, right child first."""
    new_id = np.zeros(len(children_left), dtype=np.int64)
    lefts, rights = children_left.tolist(), children_right.tolist()
    next_id, stack = 1, [0]
    while stack:
        node = stack.pop()
        left = lefts[node]
        if left != _LEAF:
            new_id[left], new_id[rights[node]] = next_id, next_id + 1
            next_id += 2
            stack.extend((left, rights[node]))
    order = np.argsort(new_id)
    internal = children_left[order] != _LEAF
    return (
        np.where(internal, new_id[children_left[order]], _LEAF),
        np.where(internal, new_id[children_right[order]], _LEAF),
        feature[order], threshold[order], value[order],
    )


def _spread(value, tree_classes, classes, fill=-1.0):
    """``value``'s class columns placed among ``classes``; ``fill``
    elsewhere."""
    if len(tree_classes) == len(classes):
        return value
    spread = np.full((len(value), len(classes)), fill)
    spread[:, np.searchsorted(classes, tree_classes)] = value
    return spread


class TreeEnsemble:
    """Fitted trees as one set of flat node arrays, routed together.

    A leaf routes to itself, so every (tree, row) pair descends the same
    number of levels, the ensemble's depth. Built once per fitted model
    (:meth:`of`) and read-only afterwards, so concurrent readers may
    share it.
    """

    def __init__(self, trees, classes):
        n_nodes = np.array([tree.n_nodes_ for tree in trees])
        self.roots = np.cumsum(n_nodes) - n_nodes
        self.n_features = trees[0].n_features_in_
        offset = np.repeat(self.roots, n_nodes)
        left = np.concatenate([tree.children_left_ for tree in trees]) + offset
        right = np.concatenate([tree.children_right_ for tree in trees]) + offset
        leaf = left < offset
        self.depth, frontier = 0, self.roots[~leaf[self.roots]]
        while frontier.size:
            self.depth += 1
            frontier = np.concatenate((left[frontier], right[frontier]))
            frontier = frontier[~leaf[frontier]]
        node = np.arange(len(leaf))
        self.children_left = np.where(leaf, node, left)
        self.children_right = np.where(leaf, node, right)
        self.feature = np.where(
            leaf, 0, np.concatenate([tree.feature_ for tree in trees]))
        self.threshold = np.concatenate([tree.threshold_ for tree in trees])
        # Per node: its class counts in the ensemble's class columns, -1
        # for a class its tree lacks. A tree's hard vote is its first
        # majority class, which the -1 never displaces.
        counts = np.concatenate([
            _spread(tree.value_, tree.classes_, classes) for tree in trees])
        self.vote = classes[np.argmax(counts, axis=1)]
        counts = np.maximum(counts, 0.0)
        self.proba = counts / np.maximum(counts.sum(axis=1, keepdims=True),
                                         1e-12)

    @classmethod
    def of(cls, model, trees):
        """``model``'s ensemble of ``trees``, built on first use and kept
        under a private name (so ``to_dict`` never sees it)."""
        ensemble = getattr(model, "_ensemble", None)
        if ensemble is None:
            ensemble = cls(trees, model.classes_)
            model._ensemble = ensemble
        return ensemble

    def _leaves(self, X):
        """The ``(n_trees, n_rows)`` leaf each tree routes each row to,
        one chunk of rows at a time."""
        X = check_array(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features}"
            )
        roots, n_features = self.roots, self.n_features
        chunk = max(1, _ROUTE_PAIRS // len(roots))
        for start in range(0, X.shape[0], chunk):
            part = X[start:start + chunk]
            # Every pair starts at its tree's root: one column per tree.
            go_left = (part[:, self.feature[roots]].T
                       <= self.threshold[roots][:, None])
            nodes = np.where(go_left, self.children_left[roots][:, None],
                             self.children_right[roots][:, None])
            flat = part.ravel()
            at_row = np.arange(0, part.shape[0] * n_features, n_features)
            for _ in range(self.depth - 1):
                go_left = (flat[at_row + self.feature[nodes]]
                           <= self.threshold[nodes])
                nodes = np.where(go_left, self.children_left[nodes],
                                 self.children_right[nodes])
            yield nodes

    def votes(self, X):
        """``(n_trees, n_rows)`` hard votes: each tree's majority class."""
        return np.hstack([self.vote[leaves] for leaves in self._leaves(X)])

    def proba_sum(self, X):
        """``(n_rows, n_classes)`` leaf class frequencies, summed over the
        trees in tree order."""
        return np.concatenate([
            np.add.accumulate(self.proba[leaves], axis=0)[-1]
            for leaves in self._leaves(X)
        ])


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

    def fit(self, X, y):
        """Grow the tree on ``(X, y)``: an ensemble of one tree whose
        every row counts once."""
        X, y = check_X_y(X, y)
        classes, y_enc = np.unique(y, return_inverse=True)
        weights = np.ones((1, X.shape[0]), dtype=np.int64)
        grow_trees(X, y_enc, classes, weights, [self])
        return self

    def _set_fitted(self, classes, n_features, arrays):
        """Take the kernel's arrays as this tree's fitted state; the
        classes are those with rows in the root."""
        children_left, children_right, feature, threshold, value = arrays
        present = value[0] > 0
        if not present.all():
            classes, value = classes[present], value[:, present]
        self.classes_ = classes
        self.n_features_in_ = n_features
        self.children_left_ = children_left
        self.children_right_ = children_right
        self.feature_ = feature
        self.threshold_ = threshold
        self.value_ = value
        self.n_nodes_ = len(children_left)
        self._ensemble = None
        return self

    def _n_split_features(self):
        """Number of features each split examines."""
        return _n_split_features(self.max_features, self.n_features_in_)

    # -- prediction ------------------------------------------------------

    def predict_proba(self, X):
        """Class probabilities from leaf class frequencies."""
        return TreeEnsemble.of(self, [self]).proba_sum(X)

    def predict(self, X):
        """Majority-class prediction: the argmax of each leaf's counts."""
        return TreeEnsemble.of(self, [self]).votes(X)[0]

    @property
    def tree_depth_(self):
        """Depth of the fitted tree (root = 0)."""
        depth = np.zeros(self.n_nodes_, dtype=int)
        for node in range(self.n_nodes_):
            for child in (self.children_left_[node], self.children_right_[node]):
                if child != _LEAF:
                    depth[child] = depth[node] + 1
        return int(depth.max()) if self.n_nodes_ else 0
