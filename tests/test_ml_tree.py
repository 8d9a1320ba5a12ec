"""Decision tree unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeClassifier


def _linearly_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


def test_fits_separable_data():
    X, y = _linearly_separable()
    tree = DecisionTreeClassifier(random_state=0).fit(X, y)
    assert tree.score(X, y) > 0.95


def test_pure_node_stops_splitting():
    X = np.ones((10, 2))
    y = np.ones(10, dtype=int)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.n_nodes_ == 1
    assert np.all(tree.predict(X) == 1)


def test_max_depth_limits_depth():
    X, y = _linearly_separable(400)
    shallow = DecisionTreeClassifier(max_depth=2, random_state=0).fit(X, y)
    assert shallow.tree_depth_ <= 2


def test_min_samples_leaf_respected():
    X, y = _linearly_separable(100)
    tree = DecisionTreeClassifier(min_samples_leaf=20, random_state=0)
    tree.fit(X, y)
    leaves = tree.children_left_ == -1
    leaf_sizes = tree.value_[leaves].sum(axis=1)
    assert leaf_sizes.min() >= 20


def test_min_samples_split_respected():
    X, y = _linearly_separable(100)
    tree = DecisionTreeClassifier(min_samples_split=80, random_state=0)
    tree.fit(X, y)
    internal = tree.children_left_ != -1
    assert tree.value_[internal].sum(axis=1).min() >= 80


def test_predict_proba_rows_sum_to_one():
    X, y = _linearly_separable()
    tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
    proba = tree.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert proba.min() >= 0.0


def test_entropy_criterion_works():
    X, y = _linearly_separable()
    tree = DecisionTreeClassifier(criterion="entropy", random_state=0)
    assert tree.fit(X, y).score(X, y) > 0.95


def test_unknown_criterion_raises():
    X, y = _linearly_separable(20)
    with pytest.raises(ValueError, match="criterion"):
        DecisionTreeClassifier(criterion="bogus").fit(X, y)


def test_multiclass_support():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 3))
    y = np.digitize(X[:, 0], [-0.5, 0.5])
    tree = DecisionTreeClassifier(random_state=0).fit(X, y)
    assert set(tree.predict(X)) <= {0, 1, 2}
    assert tree.score(X, y) > 0.9


def test_string_labels_roundtrip():
    X, y = _linearly_separable(80)
    labels = np.where(y == 1, "match", "nonmatch")
    tree = DecisionTreeClassifier(random_state=0).fit(X, labels)
    assert set(tree.predict(X)) <= {"match", "nonmatch"}


def test_feature_count_mismatch_raises():
    X, y = _linearly_separable(50)
    tree = DecisionTreeClassifier(random_state=0).fit(X, y)
    with pytest.raises(ValueError, match="features"):
        tree.predict(np.ones((3, 7)))


def test_nan_input_rejected():
    X, y = _linearly_separable(30)
    X[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        DecisionTreeClassifier().fit(X, y)


def test_max_features_sqrt_subsamples():
    X, y = _linearly_separable(200, seed=3)
    tree = DecisionTreeClassifier(max_features="sqrt", random_state=0)
    tree.fit(X, y)
    assert tree._n_split_features() == 2  # sqrt(4)
    assert tree.score(X, y) > 0.7


def test_deterministic_given_seed():
    X, y = _linearly_separable(150, seed=5)
    t1 = DecisionTreeClassifier(max_features="sqrt", random_state=9).fit(X, y)
    t2 = DecisionTreeClassifier(max_features="sqrt", random_state=9).fit(X, y)
    assert np.array_equal(t1.predict(X), t2.predict(X))


def test_serialisation_roundtrip():
    import json

    X, y = _linearly_separable(100)
    tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
    state = json.loads(json.dumps(tree.to_dict()))
    rebuilt = DecisionTreeClassifier.from_dict(state)
    assert np.array_equal(tree.predict(X), rebuilt.predict(X))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_training_accuracy_at_least_majority(seed):
    """Property: an unconstrained tree never does worse than majority."""
    rng = np.random.default_rng(seed)
    X = rng.random((40, 3))
    y = rng.integers(0, 2, size=40)
    tree = DecisionTreeClassifier(random_state=0).fit(X, y)
    majority = max(np.mean(y), 1 - np.mean(y))
    assert tree.score(X, y) >= majority - 1e-9


def test_fit_takes_no_sample_weight():
    """Weights used to be accepted and ignored (weights 1..n grew the
    unweighted tree); the parameter is gone rather than silently wrong."""
    X, y = _linearly_separable(20)
    with pytest.raises(TypeError):
        DecisionTreeClassifier().fit(X, y, sample_weight=np.arange(1, 21))
