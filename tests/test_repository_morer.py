"""Model repository + MoRER end-to-end tests (§4.4–4.5)."""

import numpy as np
import pytest

from repro.core import (
    CountingOracle,
    ModelRepository,
    MoRER,
    MoRERConfig,
)
from repro.ml import RandomForestClassifier, precision_recall_f1
from tests.conftest import exact_ranking, make_problem


# -- config -----------------------------------------------------------------------


def test_config_defaults_match_table3():
    config = MoRERConfig()
    assert config.distribution_test == "ks"
    assert config.model_generation == "al"
    assert config.al_method == "bootstrap"
    assert config.selection == "base"


@pytest.mark.parametrize("field,value", [
    ("model_generation", "zero-shot"),
    ("al_method", "qbc"),
    ("selection", "greedy"),
    ("t_cov", 0.0),
    ("b_total", -1),
    ("budget_policy", "magic"),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        MoRERConfig(**{field: value})


def test_config_roundtrip():
    config = MoRERConfig(b_total=123, distribution_test="psi")
    assert MoRERConfig.from_dict(config.to_dict()) == config


# -- repository --------------------------------------------------------------------


def _fitted_entry_repo(problems):
    repo = ModelRepository("ks")
    for i in range(0, len(problems), 2):
        group = problems[i:i + 2]
        X = np.vstack([p.features for p in group])
        y = np.concatenate([p.labels for p in group])
        model = RandomForestClassifier(n_estimators=5, random_state=0)
        model.fit(X, y)
        repo.add_entry({p.key for p in group}, model, X, y,
                       labels_spent=len(y), trained_keys={p.key for p in group})
    return repo


def test_repository_search_prefers_matching_regime():
    problems = [
        make_problem("A", "B", seed=0),
        make_problem("C", "D", seed=1),
        make_problem("E", "F", shift=0.35, seed=2),
        make_problem("G", "H", shift=0.35, seed=3),
    ]
    repo = _fitted_entry_repo(problems)
    probe_same = make_problem("X", "Y", seed=9)
    entry, similarity = repo.search(probe_same)
    assert problems[0].key in entry.problem_keys
    assert similarity > 0.5
    probe_shift = make_problem("X", "Z", shift=0.35, seed=10)
    entry, _ = repo.search(probe_shift)
    assert problems[2].key in entry.problem_keys


def test_repository_search_empty_raises(toy_problem):
    with pytest.raises(LookupError, match="empty"):
        ModelRepository("ks").search(toy_problem)


def test_repository_entry_bookkeeping(problem_family):
    repo = _fitted_entry_repo(problem_family)
    assert len(repo) == 3
    assert repo.total_labels_spent() == sum(
        p.n_pairs for p in problem_family
    )
    key = problem_family[0].key
    assert repo.entry_for_problem(key) is not None
    assert repo.entry_for_problem(("nope", "nada")) is None


def test_repository_save_load_roundtrip(tmp_path, problem_family):
    repo = _fitted_entry_repo(problem_family)
    repo.config = MoRERConfig()
    repo.save(tmp_path / "store")
    loaded = ModelRepository.load(tmp_path / "store")
    assert len(loaded) == len(repo)
    probe = make_problem("X", "Y", seed=5)
    entry_a, sim_a = repo.search(probe)
    entry_b, sim_b = loaded.search(probe)
    assert entry_a.cluster_id == entry_b.cluster_id
    assert sim_a == pytest.approx(sim_b)
    predictions_a = entry_a.predict(probe.features)
    predictions_b = entry_b.predict(probe.features)
    assert np.array_equal(predictions_a, predictions_b)


def test_repository_retrain_invalidation_evicts_signature_and_sketch():
    """Retraining an entry must evict both its cached signature and its
    sketch-index row, and the next search must see the new model."""
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.0, seed=i) for i in range(6)
    ]
    repo = _fitted_entry_repo(problems)
    repo.index_threshold = 1  # the sketch path at any size
    probe = make_problem("X", "Y", shift=0.35, seed=50)
    repo.search(probe)  # populate signature cache + sketch rows
    entry_id = next(iter(repo.entries))
    assert entry_id in repo._entry_signatures
    assert entry_id in repo._sketch_index
    # "Retrain" the entry onto the probe's (shifted) regime.
    entry = repo.entries[entry_id]
    replacement = make_problem("R", "S", shift=0.35, seed=60)
    entry.training_features = replacement.features
    entry.training_labels = replacement.labels
    repo.invalidate_entry_cache(entry_id)
    assert entry_id not in repo._entry_signatures
    assert entry_id not in repo._sketch_index
    # The next search rebuilds both lazily and the retrained entry now
    # wins for probes from the new regime.
    best, similarity = repo.search(probe)
    assert best.cluster_id == entry_id
    assert entry_id in repo._sketch_index
    (exact_id, exact_similarity), = exact_ranking(repo, probe, top_k=1)
    assert exact_id == entry_id
    assert abs(similarity - exact_similarity) < 1e-9


def test_repository_search_consistent_after_repeated_invalidation():
    """Alternating invalidations and indexed searches must never serve
    a stale sketch row (the row is rebuilt from the fresh signature)."""
    problems = [
        make_problem(f"S{i}", f"T{i}", shift=0.1 * (i % 3), seed=i)
        for i in range(8)
    ]
    repo = _fitted_entry_repo(problems)
    repo.index_threshold = 1
    probe = make_problem("X", "Y", seed=9)
    for step in range(3):
        entry_id = list(repo.entries)[step % len(repo.entries)]
        entry = repo.entries[entry_id]
        replacement = make_problem(
            "R", "S", shift=0.12 * step, seed=70 + step
        )
        entry.training_features = replacement.features
        repo.invalidate_entry_cache(entry_id)
        indexed = repo.search(probe, top_k=3)
        assert [e.cluster_id for e, _ in indexed] == [
            cluster_id for cluster_id, _ in exact_ranking(repo, probe, 3)
        ], step


# -- counting oracle ----------------------------------------------------------------


def test_counting_oracle_counts():
    oracle = CountingOracle(np.array([0, 1, 1, 0]))
    assert list(oracle([1, 2])) == [1, 1]
    assert oracle.count == 2
    oracle([0])
    assert oracle.count == 3


# -- MoRER end-to-end ---------------------------------------------------------------


def test_morer_requires_labels(problem_family):
    morer = MoRER(b_total=60, b_min=10, random_state=0)
    bare = [p.without_labels() for p in problem_family]
    with pytest.raises(ValueError, match="labels"):
        morer.fit(bare)


def test_morer_requires_shared_feature_space():
    a = make_problem("A", "B", n_features=3)
    b = make_problem("C", "D", n_features=5)
    with pytest.raises(ValueError, match="feature space"):
        MoRER(b_total=60, b_min=10).fit([a, b])


def test_morer_unfitted_solve_raises(toy_problem):
    with pytest.raises(RuntimeError, match="not fitted"):
        MoRER().solve(toy_problem)


def test_morer_fit_solve_quality(problem_family):
    morer = MoRER(b_total=120, b_min=20, random_state=0)
    morer.fit(problem_family)
    assert len(morer.repository) == len(morer.clusters_)
    probe = make_problem("X", "Y", seed=42)
    result = morer.solve(probe.without_labels())
    _, _, f1 = precision_recall_f1(probe.labels, result.predictions)
    assert f1 > 0.85
    assert result.labels_spent == 0
    assert not result.retrained


def test_morer_budget_respected(problem_family):
    morer = MoRER(b_total=100, b_min=20, random_state=0)
    morer.fit(problem_family)
    assert morer.total_labels_spent() <= 100


def test_morer_supervised_uses_all_labels(problem_family):
    morer = MoRER(model_generation="supervised", random_state=0)
    morer.fit(problem_family)
    assert morer.total_labels_spent() == sum(
        p.n_pairs for p in problem_family
    )


def test_morer_almser_variant_runs(problem_family):
    morer = MoRER(b_total=100, b_min=20, al_method="almser", random_state=0)
    morer.fit(problem_family)
    probe = make_problem("X", "Y", seed=13)
    result = morer.solve(probe.without_labels())
    _, _, f1 = precision_recall_f1(probe.labels, result.predictions)
    assert f1 > 0.8


def test_morer_timings_populated(problem_family):
    morer = MoRER(b_total=80, b_min=10, random_state=0)
    morer.fit(problem_family)
    morer.solve(make_problem("X", "Y", seed=3).without_labels())
    assert morer.timings["analysis"] > 0
    assert morer.timings["clustering"] >= 0
    assert morer.timings["al_selection"] > 0
    assert morer.timings["search"] > 0
    assert morer.overhead_seconds() > 0


def test_morer_sel_cov_new_cluster_trains_new_model():
    """A probe from an unseen regime must trigger a new model under
    sel_cov when it lands in an all-new cluster."""
    family = [make_problem(f"S{i}", f"T{i}", seed=i) for i in range(4)]
    morer = MoRER(b_total=80, b_min=10, selection="cov", t_cov=0.25,
                  random_state=0)
    morer.fit(family)
    n_entries = len(morer.repository)
    # Strongly shifted problems forming their own cluster.
    probe = make_problem("X1", "Y1", shift=0.45, seed=90)
    result = morer.solve(probe)
    if result.new_model:
        assert len(morer.repository) == n_entries + 1
        assert result.labels_spent > 0
    assert probe.key in morer.problem_graph


def test_morer_sel_cov_coverage_retraining():
    family = [make_problem(f"S{i}", f"T{i}", seed=i) for i in range(4)]
    morer = MoRER(b_total=80, b_min=10, selection="cov", t_cov=0.05,
                  random_state=0)
    morer.fit(family)
    spent_before = morer.total_labels_spent()
    # Same-regime probes join the existing cluster and push coverage up.
    retrained_any = False
    for i in range(3):
        probe = make_problem(f"X{i}", f"Y{i}", seed=50 + i)
        result = morer.solve(probe)
        retrained_any = retrained_any or result.retrained or result.new_model
    assert retrained_any
    assert morer.total_labels_spent() > spent_before


def test_morer_sel_cov_respects_high_threshold():
    family = [make_problem(f"S{i}", f"T{i}", seed=i) for i in range(6)]
    morer = MoRER(b_total=100, b_min=10, selection="cov", t_cov=1.0,
                  random_state=0)
    morer.fit(family)
    probe = make_problem("X", "Y", seed=77)
    result = morer.solve(probe)
    # cov can never exceed 1.0 -> never retrain an existing cluster.
    assert not result.retrained


def test_morer_strategy_override(problem_family):
    morer = MoRER(b_total=80, b_min=10, selection="cov", random_state=0)
    morer.fit(problem_family)
    probe = make_problem("X", "Y", seed=21)
    result = morer.solve(probe.without_labels(), strategy="base")
    assert result.labels_spent == 0
    with pytest.raises(ValueError, match="strategy"):
        morer.solve(probe, strategy="other")


def test_morer_predict_shortcut(problem_family):
    morer = MoRER(b_total=80, b_min=10, random_state=0).fit(problem_family)
    probe = make_problem("X", "Y", seed=33)
    predictions = morer.predict(probe.without_labels())
    assert predictions.shape == (probe.n_pairs,)
    assert set(np.unique(predictions)) <= {0, 1}
