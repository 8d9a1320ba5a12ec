"""The ensemble tree kernel against its per-tree oracle.

Both run the same integer counts and float operations, so every
comparison here is exact (``np.array_equal``): single trees and random
ensembles over random, tie-heavy and constant-column inputs with every
split constraint, and a whole ``MoRER.fit`` with its ``cov`` solves.
A memory gate holds the kernel's traced peak in perfbench's two
ensemble shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MoRER
from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    RandomForestClassifier,
)
from tests.conftest import make_problem
from tests.matrix_reference import traced_peak
from tests.tree_reference import (
    FITTED,
    ReferenceBagging,
    ReferenceForest,
    ReferenceTree,
)


def _matrix(rng, n_rows, n_features, decimals, constant_share):
    """Values rounded to ``decimals`` (heavy ties), some columns constant."""
    X = np.round(rng.random((n_rows, n_features)), decimals)
    X[:, rng.random(n_features) < constant_share] = 0.5
    return X


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
    X = _matrix(rng, n_rows, n_features, decimals,
                draw(st.sampled_from([0.0, 0.3])))
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
    for name in FITTED + ("classes_",):
        assert np.array_equal(getattr(kernel, name), getattr(oracle, name)), name
    assert kernel.n_nodes_ == oracle.n_nodes_
    assert np.array_equal(kernel.predict(queries), oracle.predict(queries))
    assert np.array_equal(
        kernel.predict_proba(queries), oracle.predict_proba(queries)
    )


@st.composite
def ensemble_cases(draw):
    """A training set, a query set and ensemble parameters.

    1–80 rows, 1–6 features, 2–5 classes, heavy ties; labels random, a
    noisy threshold, or all one class but for one or two rows, so that
    bootstrap samples often miss a class (the stratified fallback, and
    the trees it still leaves single-class)."""
    n_rows = draw(st.integers(1, 80))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 5))
    decimals = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = _matrix(rng, n_rows, n_features, decimals,
                draw(st.sampled_from([0.0, 0.3])))
    labels = draw(st.sampled_from(["random", "threshold", "rare"]))
    if labels == "random":
        y = rng.integers(0, n_classes, n_rows)
    elif labels == "threshold":
        y = np.minimum((X[:, 0] * n_classes).astype(int), n_classes - 1)
        noisy = rng.random(n_rows) < 0.2
        y[noisy] = rng.integers(0, n_classes, int(noisy.sum()))
    else:
        y = np.zeros(n_rows, dtype=int)
        y[rng.integers(0, n_rows, 2)] = rng.integers(1, n_classes, 2)
    queries = np.vstack([X[:30], np.round(rng.random((30, n_features)),
                                          decimals)])
    tree = {
        "criterion": draw(st.sampled_from(["gini", "entropy"])),
        "max_depth": draw(st.one_of(st.none(), st.integers(1, 8))),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "max_features": draw(st.sampled_from([None, "sqrt", 0.5])),
    }
    ensemble = {
        "n_estimators": draw(st.integers(1, 12)),
        "random_state": draw(st.integers(0, 2**31 - 1)),
    }
    return X, y, queries, tree, ensemble, draw(st.booleans())


def _same_trees(kernel, oracle):
    assert np.array_equal(kernel.classes_, oracle.classes_)
    assert len(kernel.estimators_) == len(oracle.estimators_)
    for mine, theirs in zip(kernel.estimators_, oracle.estimators_):
        for name in FITTED + ("classes_",):
            assert np.array_equal(getattr(mine, name),
                                  getattr(theirs, name)), name
        assert mine.n_nodes_ == theirs.n_nodes_
        assert mine.get_params() == theirs.get_params()


@settings(max_examples=60, deadline=None)
@given(ensemble_cases())
def test_ensembles_equal_the_per_tree_reference_exactly(case):
    X, y, queries, tree, ensemble, bootstrap = case
    forest = RandomForestClassifier(bootstrap=bootstrap, **tree, **ensemble)
    oracle = ReferenceForest(bootstrap=bootstrap, **tree, **ensemble)
    _same_trees(forest.fit(X, y), oracle.fit(X, y))
    assert np.array_equal(forest.predict(queries), oracle.predict(queries))
    assert np.array_equal(forest.predict_proba(queries),
                          oracle.predict_proba(queries))

    base = DecisionTreeClassifier(**tree)
    committee = BaggingClassifier(base_estimator=base, **ensemble)
    oracle = ReferenceBagging(base_estimator=base, **ensemble)
    _same_trees(committee.fit(X, y), oracle.fit(X, y))
    assert np.array_equal(committee.vote_matrix(queries),
                          oracle.vote_matrix(queries))
    assert np.array_equal(committee.predict(queries), oracle.predict(queries))
    assert np.array_equal(committee.predict_proba(queries),
                          oracle.predict_proba(queries))


def test_prediction_chunks_match_one_pass(monkeypatch):
    """Routing in bounded chunks of (tree, row) pairs gives the votes and
    probabilities of routing every pair at once."""
    from repro.ml import tree as tree_module

    rng = np.random.default_rng(3)
    X = np.round(rng.random((300, 4)), 2)
    y = (X[:, 0] + 0.3 * rng.random(300) > 0.6).astype(int)
    queries = rng.random((500, 4))
    forest = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
    committee = BaggingClassifier(n_estimators=7, random_state=1).fit(X, y)
    whole = (forest.predict_proba(queries), committee.vote_matrix(queries))
    monkeypatch.setattr(tree_module, "_ROUTE_PAIRS", 50)
    chunked = (forest.predict_proba(queries), committee.vote_matrix(queries))
    for mine, theirs in zip(whole, chunked):
        assert np.array_equal(mine, theirs)


def test_growth_groups_match_one_group(monkeypatch):
    """Trees grown a few at a time (the cell cap) equal trees grown in
    one lock-step group."""
    from repro.ml import tree as tree_module

    rng = np.random.default_rng(4)
    X = np.round(rng.random((120, 5)), 1)
    y = rng.integers(0, 3, 120)
    whole = RandomForestClassifier(n_estimators=9, random_state=2).fit(X, y)
    monkeypatch.setattr(tree_module, "_GROUP_CELLS", 1250)
    grouped = RandomForestClassifier(n_estimators=9, random_state=2).fit(X, y)
    _same_trees(whole, grouped)


def _similarities(n_rows, seed):
    """Six-feature similarity vectors of a 30% match share whose classes
    barely overlap, as in perfbench's regimes (and
    ``benchmarks/bench_tree_fit.py``'s ensemble arm)."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n_rows) < 0.3).astype(int)
    X = np.clip(0.25 + 0.5 * y[:, None]
                + rng.normal(0.0, 0.12, (n_rows, 6)), 0.0, 1.0)
    return X, y


#: Traced-peak bounds of ``grow_trees`` in perfbench's two ensemble
#: shapes: shape -> (model, training rows, lock-step groups, bound in
#: bytes). Each bound is this kernel's measured peak plus a 15% margin
#: (NumPy 2.4; data seeds 0-3 agree within 0.5%): the forest (a cluster
#: model, 30 trees on 420 rows) measured 1.234 MB, the committee (the
#: bootstrap AL committee, 10 trees on 335 rows) 1.004 MB. At 2**16
#: cells (:data:`repro.ml.tree._GROUP_CELLS`) the forest grows in two
#: groups and the committee in one, so the bounds hold without
#: shrinking the groups.
MEMORY_SHAPES = {
    "forest": (
        lambda: RandomForestClassifier(n_estimators=30, max_depth=10,
                                       random_state=0),
        420, 2, int(1.15 * 1.234e6),
    ),
    "committee": (
        lambda: BaggingClassifier(
            base_estimator=DecisionTreeClassifier(max_depth=8),
            n_estimators=10, random_state=0),
        335, 1, int(1.15 * 1.004e6),
    ),
}


@pytest.mark.parametrize("shape", sorted(MEMORY_SHAPES))
def test_grow_trees_stays_within_its_memory_bound(shape, monkeypatch):
    """``grow_trees``' traced peak stays within its shape's bound, in as
    many lock-step groups as the cell cap gives."""
    from repro.ml import forest as forest_module
    from repro.ml import tree as tree_module

    make, n_rows, n_groups, bound = MEMORY_SHAPES[shape]
    X, y = _similarities(n_rows, seed=0)
    make().fit(X, y)   # warm: first-call allocations are not the kernel's
    peaks, groups = [], []
    grow_trees, lock_step = tree_module.grow_trees, tree_module._LockStep

    def traced(*args):
        trees, peak = traced_peak(grow_trees, *args)
        peaks.append(peak)
        return trees

    def counted(*args):
        groups.append(args[5])   # the group's trees
        return lock_step(*args)

    monkeypatch.setattr(forest_module, "grow_trees", traced)
    monkeypatch.setattr(tree_module, "_LockStep", counted)
    make().fit(X, y)
    assert len(groups) == n_groups
    assert len(peaks) == 1 and peaks[0] <= bound, peaks


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
    """Fit twin: ``MoRER.fit`` and ``cov`` solves with the per-tree
    reference ensemble patched in for the kernel (forest fit and
    probabilities, committee fit and votes) build the same graph,
    clusters, labels spent, RNG state and decisions."""
    live, live_decisions = _fit_and_solve()
    calls = []

    def forest_fit(forest, X, y):
        calls.append(forest.max_features)
        return ReferenceForest.fit(forest, X, y)

    def committee_fit(committee, X, y):
        calls.append(committee.base_estimator.max_features)
        return ReferenceBagging.fit(committee, X, y)

    monkeypatch.setattr(RandomForestClassifier, "fit", forest_fit)
    monkeypatch.setattr(RandomForestClassifier, "predict_proba",
                        ReferenceForest.predict_proba)
    monkeypatch.setattr(BaggingClassifier, "fit", committee_fit)
    monkeypatch.setattr(BaggingClassifier, "vote_matrix",
                        ReferenceBagging.vote_matrix)
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


def test_concurrent_first_predictions_agree():
    """A model's routing tables are built on first use, possibly by
    several readers at once (base solves share the read lock): every
    reader gets the single-threaded answer, and the tables stay out of
    the serialised model."""
    import json
    import threading

    rng = np.random.default_rng(5)
    X = np.round(rng.random((200, 5)), 2)
    y = (X[:, 1] + 0.2 * rng.random(200) > 0.5).astype(int)
    forest = RandomForestClassifier(n_estimators=12, random_state=3).fit(X, y)
    state = json.loads(json.dumps(forest.to_dict()))
    expected = forest.predict_proba(X)
    assert forest.to_dict() == state
    for _ in range(5):
        loaded = RandomForestClassifier.from_dict(state)
        answers = [None] * 8
        start = threading.Barrier(len(answers))

        def read(i, model=loaded):
            start.wait()
            answers[i] = model.predict_proba(X)

        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(len(answers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for answer in answers:
            assert np.array_equal(answer, expected)
