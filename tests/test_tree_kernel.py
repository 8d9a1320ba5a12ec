"""The one-pass CART split search against its per-feature oracle.

Both run the same integer counts and float operations, so every
comparison here is exact (``np.array_equal``): over random, tie-heavy
and constant-column inputs with every split constraint, and through a
whole ``MoRER.fit`` and its ``cov`` solves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MoRER
from repro.ml import DecisionTreeClassifier
from tests import tree_reference
from tests.conftest import make_problem
from tests.tree_reference import FITTED, ReferenceTree


@st.composite
def tree_cases(draw):
    """A training set, a query set and the tree's parameters.

    2–300 rows, 1–8 features, 2–5 classes; values rounded to 0–2
    decimals (heavy ties) and some columns constant; labels either
    random or a noisy threshold on one feature."""
    n_rows = draw(st.integers(2, 300))
    n_features = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 5))
    decimals = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.random((n_rows, n_features)), decimals)
    constant = rng.random(n_features) < draw(st.sampled_from([0.0, 0.3]))
    X[:, constant] = 0.5
    if draw(st.booleans()):
        y = rng.integers(0, n_classes, n_rows)
    else:
        y = np.minimum((X[:, 0] * n_classes).astype(int), n_classes - 1)
        noisy = rng.random(n_rows) < 0.2
        y[noisy] = rng.integers(0, n_classes, int(noisy.sum()))
    queries = np.vstack([
        X[: min(n_rows, 40)],
        np.round(rng.random((40, n_features)), decimals),
    ])
    params = {
        "criterion": draw(st.sampled_from(["gini", "entropy"])),
        "min_samples_leaf": draw(st.integers(1, 5)),
        "max_depth": draw(st.one_of(st.none(), st.integers(1, 8))),
        "max_features": draw(st.sampled_from([None, "sqrt", 0.5])),
        "random_state": draw(st.integers(0, 2**31 - 1)),
    }
    return X, y, queries, params


@settings(max_examples=80, deadline=None)
@given(tree_cases())
def test_one_pass_split_search_equals_oracle_exactly(case):
    X, y, queries, params = case
    kernel = DecisionTreeClassifier(**params).fit(X, y)
    oracle = ReferenceTree(**params).fit(X, y)
    for name in FITTED:
        assert np.array_equal(getattr(kernel, name), getattr(oracle, name)), name
    assert np.array_equal(kernel.predict(queries), oracle.predict(queries))
    assert np.array_equal(
        kernel.predict_proba(queries), oracle.predict_proba(queries)
    )


def _problem_family():
    """Two distribution regimes over a spread of sizes, with overlapping
    classes so committee and forest trees have splits to search."""
    sizes = [60, 85, 110, 140, 75, 125, 95, 150]
    return [
        make_problem(
            source_a=f"S{2 * i}", source_b=f"S{2 * i + 1}", n=n,
            shift=0.6 * (i % 2) + 0.3, seed=i,
        )
        for i, n in enumerate(sizes)
    ]


def _probes():
    return [
        make_problem(
            source_a=f"X{i}", source_b=f"Y{i}", n=n,
            shift=0.6 * (i % 2) + 0.3, seed=100 + i,
        )
        for i, n in enumerate([70, 90, 120, 80])
    ]


def _fit_and_solve():
    morer = MoRER(random_state=0, b_total=300, b_min=40)
    morer.fit(_problem_family())
    decisions = [
        morer.solve(probe, strategy="cov") for probe in _probes()
    ]
    return morer, decisions


def test_fit_and_cov_solves_are_identical_under_the_oracle(monkeypatch):
    """Fit twin: ``MoRER.fit`` and ``cov`` solves with the oracle's split
    search and ``predict`` patched in build the same graph, clusters,
    labels spent, RNG state and decisions."""
    live, live_decisions = _fit_and_solve()
    calls = []

    def best_split(tree, *args):
        calls.append(tree.max_features)
        return tree_reference.best_split(tree, *args)

    monkeypatch.setattr(DecisionTreeClassifier, "_best_split", best_split)
    monkeypatch.setattr(
        DecisionTreeClassifier, "predict", tree_reference.predict
    )
    twin, twin_decisions = _fit_and_solve()
    # Both shapes ran: committee trees (every feature) and forest trees.
    assert {None, "sqrt"} <= set(calls)

    live_meta, live_arrays = live.problem_graph.export_state()
    twin_meta, twin_arrays = twin.problem_graph.export_state()
    assert live_meta == twin_meta
    assert live_arrays.keys() == twin_arrays.keys()
    for name, array in live_arrays.items():
        assert np.array_equal(array, twin_arrays[name]), name
    assert sorted(map(sorted, live.clusters_)) == sorted(
        map(sorted, twin.clusters_)
    )
    assert live.total_labels_spent() == twin.total_labels_spent()
    assert live._rng.bit_generator.state == twin._rng.bit_generator.state
    for mine, theirs in zip(live_decisions, twin_decisions):
        assert mine.cluster_id == theirs.cluster_id
        assert mine.retrained == theirs.retrained
        assert mine.new_model == theirs.new_model
        assert mine.labels_spent == theirs.labels_spent
        assert np.array_equal(mine.predictions, theirs.predictions)
    for mine, theirs in zip(live.repository, twin.repository):
        assert np.array_equal(mine.training_features, theirs.training_features)
        assert np.array_equal(mine.training_labels, theirs.training_labels)
