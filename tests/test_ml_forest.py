"""Random forest and bagging committee tests."""

import numpy as np
import pytest

from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    RandomForestClassifier,
)


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = ((X[:, 0] + X[:, 2]) > 0).astype(int)
    return X, y


def test_forest_beats_chance():
    X, y = _data()
    forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
    assert forest.score(X, y) > 0.9


def test_forest_proba_shape_and_normalisation():
    X, y = _data()
    forest = RandomForestClassifier(n_estimators=8, random_state=0).fit(X, y)
    proba = forest.predict_proba(X[:10])
    assert proba.shape == (10, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


def test_forest_deterministic_with_seed():
    X, y = _data(150)
    f1 = RandomForestClassifier(n_estimators=6, random_state=3).fit(X, y)
    f2 = RandomForestClassifier(n_estimators=6, random_state=3).fit(X, y)
    assert np.array_equal(f1.predict(X), f2.predict(X))


def test_forest_n_estimators_validated():
    with pytest.raises(ValueError, match="n_estimators"):
        RandomForestClassifier(n_estimators=0).fit(*_data(30))


def test_forest_without_bootstrap():
    X, y = _data(120)
    forest = RandomForestClassifier(
        n_estimators=4, bootstrap=False, random_state=0
    ).fit(X, y)
    assert forest.score(X, y) > 0.9


def test_forest_handles_heavy_imbalance():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = np.zeros(200, dtype=int)
    y[:5] = 1
    X[:5] += 4.0
    forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
    assert set(np.unique(forest.predict(X))) <= {0, 1}
    # The rare class must be representable (stratified bootstrap).
    assert forest.predict_proba(X[:5])[:, 1].mean() > 0.3


def test_bagging_vote_matrix_shape():
    X, y = _data(100)
    committee = BaggingClassifier(
        base_estimator=DecisionTreeClassifier(max_depth=4),
        n_estimators=7, random_state=0,
    ).fit(X, y)
    votes = committee.vote_matrix(X[:9])
    assert votes.shape == (7, 9)


def test_bagging_uncertainty_profile():
    """Vote shares are in [0,1] and ambiguous points are uncertain."""
    X, y = _data(400, seed=2)
    committee = BaggingClassifier(n_estimators=11, random_state=0).fit(X, y)
    proba = committee.predict_proba(X)
    assert proba.min() >= 0 and proba.max() <= 1
    share = proba[:, 1]
    uncertainty = share * (1 - share)
    # Points near the true boundary should be more uncertain on average.
    boundary = np.abs(X[:, 0] + X[:, 2]) < 0.2
    if boundary.sum() > 5:
        assert uncertainty[boundary].mean() >= uncertainty.mean() * 0.5


def test_bagging_default_base_estimator():
    X, y = _data(80)
    committee = BaggingClassifier(n_estimators=3, random_state=0).fit(X, y)
    assert committee.score(X, y) > 0.7


def _assert_same_forest(forest, rebuilt):
    """Params, classes and every tree's params and fitted arrays are
    equal, values and dtypes."""
    assert rebuilt.get_params() == forest.get_params()
    assert rebuilt.classes_.dtype == forest.classes_.dtype
    assert np.array_equal(rebuilt.classes_, forest.classes_)
    assert rebuilt.n_features_in_ == forest.n_features_in_
    assert len(rebuilt.estimators_) == len(forest.estimators_)
    for tree, twin in zip(forest.estimators_, rebuilt.estimators_):
        assert twin.get_params() == tree.get_params()
        assert twin.n_nodes_ == tree.n_nodes_
        assert twin.n_features_in_ == tree.n_features_in_
        for name in ("classes_", "children_left_", "children_right_",
                     "feature_", "threshold_", "value_"):
            mine, theirs = getattr(tree, name), getattr(twin, name)
            assert theirs.dtype == mine.dtype, name
            assert np.array_equal(theirs, mine), name


def _round_trip(forest):
    import json

    return RandomForestClassifier.from_dict(
        json.loads(json.dumps(forest.to_dict()))
    )


def test_forest_serialisation_roundtrip():
    X, y = _data(100)
    forest = RandomForestClassifier(n_estimators=4, random_state=1).fit(X, y)
    rebuilt = _round_trip(forest)
    _assert_same_forest(forest, rebuilt)
    # The arithmetic is unchanged, so the probabilities are equal, not
    # merely close.
    assert np.array_equal(forest.predict_proba(X), rebuilt.predict_proba(X))
    assert np.array_equal(forest.predict(X), rebuilt.predict(X))


def test_forest_serialisation_keeps_a_tree_missing_a_class():
    """A tree whose bootstrap lacks a class stores zero counts for it in
    the forest's class columns; the load derives its ``classes_`` from
    the root counts again."""
    X = np.array([[0.1, 0.5], [0.4, 0.2], [0.9, 0.7], [0.3, 0.8]])
    y = np.array([0, 1, 2, 2])
    forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
    lacking = [len(tree.classes_) < 3 for tree in forest.estimators_]
    assert any(lacking) and not all(lacking)
    rebuilt = _round_trip(forest)
    _assert_same_forest(forest, rebuilt)
    assert np.array_equal(forest.predict_proba(X), rebuilt.predict_proba(X))


def test_forest_serialises_as_one_ensemble():
    """The params and classes are written once, not once per tree, and
    an unfitted forest still round-trips."""
    X, y = _data(100)
    forest = RandomForestClassifier(n_estimators=6, random_state=2).fit(X, y)
    state = forest.to_dict()
    assert "estimators_" not in state["fitted"]
    trees = state["trees"]
    n_nodes = sum(tree.n_nodes_ for tree in forest.estimators_)
    assert trees["random_state"] == [
        tree.random_state for tree in forest.estimators_
    ]
    assert len(trees["children_left"]) == n_nodes
    assert len(trees["value"]) == n_nodes * len(forest.classes_)
    unfitted = _round_trip(RandomForestClassifier(n_estimators=3))
    assert unfitted.get_params() == RandomForestClassifier(
        n_estimators=3).get_params()
    assert not hasattr(unfitted, "estimators_")


def test_bagging_n_estimators_validated():
    with pytest.raises(ValueError, match="n_estimators"):
        BaggingClassifier(n_estimators=0).fit(*_data(30))


def test_bagging_bags_trees_only():
    from repro.ml import GaussianNB

    with pytest.raises(TypeError, match="DecisionTreeClassifier"):
        BaggingClassifier(base_estimator=GaussianNB()).fit(*_data(30))


def test_committee_trees_take_the_template_parameters():
    X, y = _data(120)
    base = DecisionTreeClassifier(max_depth=2, criterion="entropy")
    committee = BaggingClassifier(
        base_estimator=base, n_estimators=4, random_state=5
    ).fit(X, y)
    template = base.get_params()
    del template["random_state"]
    seeds = set()
    for tree in committee.estimators_:
        params = tree.get_params()
        seeds.add(params.pop("random_state"))
        assert params == template
        assert tree.tree_depth_ <= 2
    assert len(seeds) == 4
