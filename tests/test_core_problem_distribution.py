"""ERProblem container + distribution test (§4.2) unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import (
    ClassifierTwoSampleTest,
    ERProblem,
    KolmogorovSmirnovTest,
    PopulationStabilityTest,
    WassersteinTest,
    make_distribution_test,
    problem_similarity,
)
from tests.conftest import make_problem


# -- ERProblem -----------------------------------------------------------------


def test_problem_validation_bounds():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ERProblem("a", "b", np.array([[1.5]]))
    with pytest.raises(ValueError, match="2-d"):
        ERProblem("a", "b", np.ones(3))
    with pytest.raises(ValueError, match="at least one"):
        ERProblem("a", "b", np.empty((0, 2)))


def test_problem_rejects_nan_features():
    features = np.full((3, 2), 0.5)
    features[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ERProblem("a", "b", features)


def test_problem_label_validation():
    features = np.ones((3, 2)) * 0.5
    with pytest.raises(ValueError, match="align"):
        ERProblem("a", "b", features, labels=[1])
    with pytest.raises(ValueError, match="binary"):
        ERProblem("a", "b", features, labels=[0, 1, 2])


def test_problem_key_is_sorted():
    features = np.ones((2, 2)) * 0.5
    assert ERProblem("z", "a", features).key == ("a", "z")


def test_problem_counts_and_columns(toy_problem):
    assert toy_problem.n_pairs == 120
    assert toy_problem.n_features == 4
    assert 0 < toy_problem.n_matches < 120
    column = toy_problem.feature_column(0)
    assert column.shape == (120,)
    by_name = toy_problem.feature_column("f0")
    assert np.array_equal(column, by_name)


def test_problem_subset_consistency(toy_problem):
    subset = toy_problem.subset(np.arange(10))
    assert subset.n_pairs == 10
    assert subset.pair_ids == toy_problem.pair_ids[:10]
    assert np.array_equal(subset.labels, toy_problem.labels[:10])


def test_problem_without_labels(toy_problem):
    bare = toy_problem.without_labels()
    assert bare.labels is None
    with pytest.raises(ValueError, match="no labels"):
        _ = bare.n_matches


# -- univariate tests against scipy oracles ----------------------------------------


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(0)
    a = rng.random(200)
    b = np.clip(rng.normal(0.6, 0.2, 300), 0, 1)
    ours = 1.0 - KolmogorovSmirnovTest().feature_similarity(a, b)
    theirs = stats.ks_2samp(a, b).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_wasserstein_matches_scipy():
    rng = np.random.default_rng(1)
    a = rng.random(150)
    b = np.clip(rng.normal(0.3, 0.15, 250), 0, 1)
    ours = 1.0 - WassersteinTest().feature_similarity(a, b)
    theirs = stats.wasserstein_distance(a, b)
    assert ours == pytest.approx(theirs, abs=1e-9)


def test_psi_zero_for_identical_samples():
    rng = np.random.default_rng(2)
    a = rng.random(500)
    similarity = PopulationStabilityTest(n_bins=20).feature_similarity(a, a)
    assert similarity == pytest.approx(1.0, abs=1e-6)


def test_psi_detects_shift():
    rng = np.random.default_rng(3)
    a = np.clip(rng.normal(0.2, 0.05, 400), 0, 1)
    b = np.clip(rng.normal(0.8, 0.05, 400), 0, 1)
    test = PopulationStabilityTest(n_bins=20)
    assert test.feature_similarity(a, b) < 0.3


def test_psi_bin_validation():
    with pytest.raises(ValueError, match="bins"):
        PopulationStabilityTest(n_bins=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_univariate_similarities_bounded_property(seed):
    """Property: all three univariate tests return values in [0, 1] and
    self-similarity 1.0."""
    rng = np.random.default_rng(seed)
    a = rng.random(50)
    b = rng.random(70)
    for test in (KolmogorovSmirnovTest(), WassersteinTest(),
                 PopulationStabilityTest(n_bins=10)):
        value = test.feature_similarity(a, b)
        assert 0.0 <= value <= 1.0
        assert test.feature_similarity(a, a) == pytest.approx(1.0, abs=1e-9)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty"):
        KolmogorovSmirnovTest().feature_similarity(np.array([]), np.ones(3))


# -- problem-level aggregation ----------------------------------------------------


def test_similar_problems_score_higher_than_shifted():
    same_a = make_problem(seed=0)
    same_b = make_problem(source_a="C", source_b="D", seed=1)
    shifted = make_problem(source_a="E", source_b="F", shift=0.35, seed=2)
    for name in ("ks", "wd", "psi"):
        test = make_distribution_test(name)
        close = problem_similarity(same_a, same_b, test)
        far = problem_similarity(same_a, shifted, test)
        assert close > far, name


def test_feature_space_mismatch_rejected():
    test = KolmogorovSmirnovTest()
    with pytest.raises(ValueError, match="feature space"):
        test.problem_similarity(np.ones((5, 3)), np.ones((5, 4)))


def test_std_weighting_prefers_discriminative_features():
    """A feature with zero variance contributes no weight."""
    rng = np.random.default_rng(0)
    # Feature 0 identical constant in both; feature 1 very different.
    a = np.column_stack([np.full(100, 0.5), rng.uniform(0, 0.3, 100)])
    b = np.column_stack([np.full(100, 0.5), rng.uniform(0.7, 1.0, 100)])
    test = KolmogorovSmirnovTest()
    similarity = test.problem_similarity(a, b)
    # Constant feature would give sim 1.0; weighting must let the
    # differing feature dominate.
    assert similarity < 0.2


def test_constant_features_fall_back_to_uniform_weights():
    a = np.full((50, 2), 0.5)
    b = np.full((60, 2), 0.5)
    assert KolmogorovSmirnovTest().problem_similarity(a, b) == pytest.approx(1.0)


# -- classifier two-sample test -----------------------------------------------------


def test_c2st_identical_distributions_high_similarity():
    rng = np.random.default_rng(0)
    a = rng.random((300, 4))
    b = rng.random((300, 4))
    test = ClassifierTwoSampleTest(max_samples=150, random_state=0)
    assert test.problem_similarity(a, b) > 0.35


def test_c2st_separable_distributions_low_similarity():
    rng = np.random.default_rng(1)
    a = np.clip(rng.normal(0.15, 0.05, (300, 4)), 0, 1)
    b = np.clip(rng.normal(0.85, 0.05, (300, 4)), 0, 1)
    test = ClassifierTwoSampleTest(max_samples=150, random_state=0)
    assert test.problem_similarity(a, b) < 0.1


def test_c2st_caps_samples():
    rng = np.random.default_rng(2)
    a = rng.random((2000, 3))
    b = rng.random((50, 3))
    test = ClassifierTwoSampleTest(max_samples=100, random_state=0)
    value = test.problem_similarity(a, b)
    assert 0.0 <= value <= 1.0


def test_registry_and_unknown_test():
    assert make_distribution_test("ks").name == "ks"
    assert make_distribution_test("psi", n_bins=10).n_bins == 10
    with pytest.raises(KeyError, match="unknown distribution test"):
        make_distribution_test("chi2")
