"""Baseline tests: Bootstrap AL, Almser, TransER, ZeroER, LM simulators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AlmserActiveLearner,
    AnyMatchClassifier,
    BootstrapActiveLearner,
    DittoClassifier,
    SudowoodoClassifier,
    TransER,
    UnicornClassifier,
    ZeroER,
    record_uniqueness_scores,
)
from repro.core import CountingOracle
from repro.ml import RandomForestClassifier, precision_recall_f1
from tests.conftest import make_problem

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _pool(n=300, seed=0):
    problem = make_problem(n=n, seed=seed)
    return problem.features, problem.labels, problem.pair_ids


# -- bootstrap AL -------------------------------------------------------------------


def test_bootstrap_respects_budget():
    X, y, _ = _pool()
    oracle = CountingOracle(y)
    learner = BootstrapActiveLearner(k=5, batch_size=20, random_state=0)
    indices, labels = learner.select(X, oracle, budget=60)
    assert len(indices) == 60
    assert oracle.count == 60
    assert np.array_equal(labels, y[indices])


def test_bootstrap_indices_unique():
    X, y, _ = _pool()
    learner = BootstrapActiveLearner(k=5, random_state=1)
    indices, _ = learner.select(X, CountingOracle(y), budget=80)
    assert len(set(indices.tolist())) == 80


def test_bootstrap_model_quality_beats_random():
    X, y, _ = _pool(400, seed=2)
    learner = BootstrapActiveLearner(k=7, batch_size=15, random_state=0)
    indices, labels = learner.select(X, CountingOracle(y), budget=60)
    model = RandomForestClassifier(n_estimators=10, random_state=0)
    model.fit(X[indices], labels)
    assert model.score(X, y) > 0.9


def test_bootstrap_k_validation():
    with pytest.raises(ValueError, match="k must"):
        BootstrapActiveLearner(k=1)


def test_bootstrap_budget_validation():
    X, y, _ = _pool(50)
    with pytest.raises(ValueError, match="budget"):
        BootstrapActiveLearner(random_state=0).select(
            X, CountingOracle(y), budget=1
        )


def test_bootstrap_record_score_requires_inputs():
    X, y, _ = _pool(50)
    learner = BootstrapActiveLearner(use_record_score=True, random_state=0)
    with pytest.raises(ValueError, match="record_cluster_counts"):
        learner.select(X, CountingOracle(y), budget=20)


def test_bootstrap_with_record_score_runs():
    X, y, pair_ids = _pool(200, seed=3)
    counts = {rid: 1 for pair in pair_ids for rid in pair}
    learner = BootstrapActiveLearner(
        k=5, use_record_score=True, random_state=0
    )
    indices, _ = learner.select(
        X, CountingOracle(y), budget=40, pair_ids=pair_ids,
        record_cluster_counts=counts, n_clusters=3,
    )
    assert len(indices) == 40


def test_record_uniqueness_scores_orientation():
    pair_ids = [("r1", "r2"), ("r3", "r4")]
    counts = {"r1": 1, "r2": 1, "r3": 4, "r4": 4}
    scores = record_uniqueness_scores(pair_ids, counts, n_clusters=4)
    # Records in one cluster are more unique than records in all four.
    assert scores[0] > scores[1]
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(0.0)


def test_record_uniqueness_single_cluster_all_zero():
    scores = record_uniqueness_scores([("a", "b")], {"a": 1, "b": 1}, 1)
    assert scores[0] == 0.0


def _per_pair_uniqueness_scores(pair_ids, counts, n_clusters):
    """The per-pair loop :func:`record_uniqueness_scores` replaced:
    two ``math.log`` scores per pair (Eqs. 11–12)."""
    max_score = math.log(n_clusters) if n_clusters > 1 else 1.0

    def score(record):
        occurrences = max(1, counts.get(record, 1))
        raw = math.log(n_clusters / occurrences) if n_clusters > 1 else 0.0
        return raw / max_score if max_score > 0 else 0.0

    scores = np.empty(len(pair_ids))
    for index, (source_record, target_record) in enumerate(pair_ids):
        scores[index] = 0.5 * (score(source_record) + score(target_record))
    return scores


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=60),
    st.dictionaries(st.integers(0, 30), st.integers(0, 12)),
    st.integers(1, 12),
)
def test_record_uniqueness_scores_match_the_per_pair_loop(
        pairs, counts, n_clusters):
    """Scoring once per distinct occurrence count is bit-identical to
    scoring every record, with one cluster, records missing from the
    counts (ids above 30) and zero counts included."""
    pair_ids = [(f"r{a}", f"r{b}") for a, b in pairs]
    counts = {f"r{record}": count for record, count in counts.items()}
    assert np.array_equal(
        record_uniqueness_scores(pair_ids, counts, n_clusters),
        _per_pair_uniqueness_scores(pair_ids, counts, n_clusters),
    )


def test_importing_repro_leaves_the_heavy_baselines_unloaded():
    """The heavy baselines load on first access: the CLI import does
    not pull in the neural substrate, and the names still import."""
    script = (
        "import sys\n"
        "import repro.cli\n"
        "assert 'repro.nn' not in sys.modules, 'repro.nn imported'\n"
        "from repro.baselines import DittoClassifier\n"
        "assert 'repro.nn' in sys.modules\n"
        "print(DittoClassifier.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    output = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert output.strip() == "DittoClassifier"


# -- Almser ---------------------------------------------------------------------


def test_almser_respects_budget_and_adds_inferred_labels():
    X, y, pair_ids = _pool(300, seed=4)
    oracle = CountingOracle(y)
    learner = AlmserActiveLearner(batch_size=20, random_state=0)
    indices, labels = learner.select(X, oracle, budget=60, pair_ids=pair_ids)
    assert oracle.count == 60  # graph-inferred labels are free
    assert len(indices) >= 60


def test_almser_without_pairs_degrades_to_uncertainty():
    X, y, _ = _pool(200, seed=5)
    learner = AlmserActiveLearner(random_state=0,
                                  use_graph_inferred_labels=False)
    indices, labels = learner.select(X, CountingOracle(y), budget=40,
                                     pair_ids=None)
    assert len(indices) == 40


def test_almser_model_quality():
    X, y, pair_ids = _pool(400, seed=6)
    learner = AlmserActiveLearner(batch_size=15, random_state=0)
    indices, labels = learner.select(X, CountingOracle(y), budget=60,
                                     pair_ids=pair_ids)
    model = RandomForestClassifier(n_estimators=10, random_state=0)
    model.fit(X[indices], labels)
    assert model.score(X, y) > 0.85


def test_almser_committee_validation():
    with pytest.raises(ValueError, match="committee_size"):
        AlmserActiveLearner(committee_size=1)


_ALMSER_SCRIPT = """
import hashlib
from repro.baselines import AlmserActiveLearner
from repro.core import CountingOracle
from repro.core.selection import pool_problems
from repro.datasets import load_benchmark

for name in ("dexter", "wdc-computer", "music"):
    _, _, split = load_benchmark(name, scale=0.05)
    features, labels, pair_ids = pool_problems(split.initial)
    for budget in (100, 200):
        indices, chosen = AlmserActiveLearner(random_state=0).select(
            features, CountingOracle(labels), min(budget, len(labels)),
            pair_ids=pair_ids,
        )
        digest = hashlib.sha256(indices.tobytes() + chosen.tobytes())
        print(name, budget, digest.hexdigest())
"""


def _almser_selections_under_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", _ALMSER_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def test_almser_selections_ignore_the_hash_seed():
    """The min cuts over the match graph's components, hence the
    selected pairs and the graph-inferred labels, must not depend on
    the process's string hash seed."""
    first = _almser_selections_under_hash_seed(0)
    assert len(first.splitlines()) == 6
    assert _almser_selections_under_hash_seed(1) == first


# -- TransER ----------------------------------------------------------------------


def test_transer_transfers_labels_between_similar_tasks():
    source = make_problem("A", "B", n=400, seed=0)
    target = make_problem("C", "D", n=200, seed=1)
    transfer = TransER(k=5, t_c=0.8, t_l=0.5, t_p=0.8, random_state=0)
    transfer.fit(source.features, source.labels)
    predictions = transfer.fit_predict(target.features)
    _, _, f1 = precision_recall_f1(target.labels, predictions)
    assert f1 > 0.85
    assert transfer.n_pseudo_labels_ > 0


def test_transer_tiny_target_falls_back_to_source_model():
    """Fewer than 10 accepted pseudo labels -> the source model serves."""
    source = make_problem("A", "B", n=200, seed=0)
    target = make_problem("C", "D", n=6, seed=1)
    transfer = TransER(k=5, random_state=0)
    transfer.fit(source.features, source.labels)
    transfer.fit_target(target.features)
    assert transfer._target_model is transfer._model
    assert transfer.predict(target.features).shape == (6,)


def test_transer_parameter_validation():
    with pytest.raises(ValueError, match="k must"):
        TransER(k=0)
    with pytest.raises(ValueError, match="t_c"):
        TransER(t_c=1.5)


# -- ZeroER -----------------------------------------------------------------------


def test_zeroer_unsupervised_separation():
    problem = make_problem(n=400, seed=7)
    zeroer = ZeroER(random_state=0)
    predictions = zeroer.fit_predict(problem.features)
    _, _, f1 = precision_recall_f1(problem.labels, predictions)
    assert f1 > 0.8


def test_zeroer_proba_range():
    problem = make_problem(n=200, seed=8)
    zeroer = ZeroER(random_state=0).fit(problem.features)
    proba = zeroer.predict_proba(problem.features)
    assert proba.min() >= 0 and proba.max() <= 1


def test_zeroer_match_prior_validation():
    with pytest.raises(ValueError, match="match_prior"):
        ZeroER(match_prior=0.0)


def test_zeroer_one_to_one_cleanup_reduces_conflicts():
    problem = make_problem(n=200, seed=9)
    pair_ids = [("L0", f"R{i}") for i in range(problem.n_pairs)]
    zeroer = ZeroER(enforce_one_to_one=True, random_state=0)
    zeroer.fit(problem.features)
    predictions = zeroer.predict(problem.features, pair_ids=pair_ids)
    # All pairs share the left record; at most one can stay a match.
    assert predictions.sum() <= 1


# -- LM simulators (tiny budgets for speed) -------------------------------------------


def _record_pairs(n=80, seed=0):
    rng = np.random.default_rng(seed)
    pairs, labels = [], []
    for _ in range(n):
        name = f"prod{rng.integers(0, 20)} alpha beta"
        a = {"title": name, "price": 10}
        if rng.random() < 0.5:
            b = {"title": name, "price": 10}
            labels.append(1)
        else:
            b = {"title": f"prod{rng.integers(20, 40)} gamma", "price": 99}
            labels.append(0)
        pairs.append((a, b))
    return pairs, np.asarray(labels)


def test_ditto_learns_simple_matching():
    pairs, labels = _record_pairs(100)
    model = DittoClassifier(n_layers=1, epochs=4, dim=16, max_len=24,
                            random_state=0)
    model.fit(pairs, labels)
    predictions = model.predict(pairs)
    _, _, f1 = precision_recall_f1(labels, predictions)
    assert f1 > 0.8


def test_unicorn_moe_runs_and_balances():
    pairs, labels = _record_pairs(60, seed=1)
    model = UnicornClassifier(n_experts=3, epochs=3, dim=16, max_len=24,
                              random_state=0)
    model.fit(pairs, labels)
    assert model.moe.load_balance_penalty() < 3.0
    assert model.predict(pairs).shape == (60,)


def test_sudowoodo_semi_supervised_pipeline():
    pairs, labels = _record_pairs(60, seed=2)
    records = [a for a, _ in pairs] + [b for _, b in pairs]
    model = SudowoodoClassifier(pretrain_epochs=1, epochs=3, dim=16,
                                max_len=24, random_state=0)
    model.fit_semi_supervised(records, pairs, labels, budget=30)
    assert model.predict(pairs).shape == (60,)


def test_anymatch_selects_configuration():
    pairs, labels = _record_pairs(80, seed=3)
    model = AnyMatchClassifier(sample_size=40, dim=16, random_state=0)
    model.fit(pairs, labels)
    assert 0.0 <= model.validation_f1_ <= 1.0
    assert model.predict(pairs).shape == (80,)


def test_anymatch_unfitted_raises():
    with pytest.raises(RuntimeError, match="not fitted"):
        AnyMatchClassifier().predict([({}, {})])


def test_lm_threshold_calibrated():
    pairs, labels = _record_pairs(100, seed=4)
    model = DittoClassifier(n_layers=1, epochs=3, dim=16, max_len=24,
                            random_state=0).fit(pairs, labels)
    assert 0.1 <= model.threshold_ <= 0.9
