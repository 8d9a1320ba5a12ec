"""Gaussian mixture + estimator base-class tests (vs scipy oracle)."""

import inspect

import numpy as np
import pytest
from scipy import stats

from repro.ml import GaussianMixture, clone
from repro.ml.base import BaseEstimator


def _two_blobs(n=300, separation=4.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n // 2, 2))
    b = rng.normal(separation, 0.5, size=(n // 2, 2))
    return np.vstack([a, b])


def test_gmm_recovers_two_blobs():
    X = _two_blobs()
    gmm = GaussianMixture(n_components=2, random_state=0).fit(X)
    means = np.sort(gmm.means_[:, 0])
    assert means[0] == pytest.approx(0.0, abs=0.3)
    assert means[1] == pytest.approx(4.0, abs=0.3)
    assert gmm.weights_.sum() == pytest.approx(1.0)


def test_gmm_responsibilities_normalised():
    X = _two_blobs(200)
    gmm = GaussianMixture(n_components=2, random_state=0).fit(X)
    resp = gmm.predict_proba(X)
    assert np.allclose(resp.sum(axis=1), 1.0)


def test_gmm_log_likelihood_matches_scipy_single_component():
    """With one component the mixture is one diagonal Gaussian; the log
    likelihood must match scipy's."""
    rng = np.random.default_rng(1)
    X = rng.normal(2.0, 1.5, size=(400, 1))
    gmm = GaussianMixture(n_components=1, random_state=0, reg_covar=1e-9)
    gmm.fit(X)
    ours = gmm.score_samples(X[:20]).sum()
    scipy_ll = stats.norm.logpdf(
        X[:20, 0], loc=gmm.means_[0, 0], scale=np.sqrt(gmm.variances_[0, 0])
    ).sum()
    assert ours == pytest.approx(scipy_ll, rel=1e-6)


def test_gmm_needs_enough_samples():
    with pytest.raises(ValueError, match="n_components"):
        GaussianMixture(n_components=5).fit(np.ones((3, 2)))


def test_gmm_em_monotone_likelihood():
    X = _two_blobs(150, separation=2.0, seed=3)
    g1 = GaussianMixture(n_components=2, max_iter=1, random_state=0).fit(X)
    g50 = GaussianMixture(n_components=2, max_iter=50, random_state=0).fit(X)
    assert g50.lower_bound_ >= g1.lower_bound_ - 1e-6


def test_gmm_predict_labels_components():
    X = _two_blobs(100)
    gmm = GaussianMixture(n_components=2, random_state=0).fit(X)
    labels = gmm.predict(X)
    # Points of the same blob should overwhelmingly share a component.
    first = labels[:50]
    assert (first == np.round(first.mean())).mean() > 0.9


# -- base estimator ---------------------------------------------------------------


class _Stub(BaseEstimator):
    def __init__(self, alpha=1.0, beta="x"):
        self.alpha = alpha
        self.beta = beta


def test_get_params_reflects_constructor():
    assert _Stub(alpha=3).get_params() == {"alpha": 3, "beta": "x"}


def test_set_params_validates_names():
    stub = _Stub()
    stub.set_params(alpha=9)
    assert stub.alpha == 9
    with pytest.raises(ValueError, match="invalid parameter"):
        stub.set_params(gamma=1)


def test_clone_is_unfitted_copy():
    stub = _Stub(alpha=7)
    stub.fitted_thing_ = np.arange(3)
    twin = clone(stub)
    assert twin.alpha == 7
    assert not hasattr(twin, "fitted_thing_")


def test_to_dict_from_dict_roundtrip_with_arrays():
    stub = _Stub(alpha=2.5)
    stub.weights_ = np.array([[1.0, 2.0], [3.0, 4.0]])
    stub.names_ = ["a", "b"]
    state = stub.to_dict()
    rebuilt = _Stub.from_dict(state)
    assert np.array_equal(rebuilt.weights_, stub.weights_)
    assert rebuilt.names_ == ["a", "b"]


def test_from_dict_rejects_wrong_class():
    state = _Stub().to_dict()
    state["__class__"] = "SomethingElse"
    with pytest.raises(ValueError, match="state is for"):
        _Stub.from_dict(state)


def test_repr_contains_params():
    assert "alpha=1.0" in repr(_Stub())


def test_param_names_are_cached_per_class(monkeypatch):
    """Parameter names are introspected once per class, and a subclass
    with its own ``__init__`` gets its own names, not its parent's."""

    class _Child(_Stub):
        def __init__(self, gamma=3, **kwargs):
            super().__init__(**kwargs)
            self.gamma = gamma

    class _Inheriting(_Stub):
        pass

    assert _Stub._param_names() == ("alpha", "beta")
    assert _Child._param_names() == ("gamma",)
    assert _Inheriting._param_names() == ("alpha", "beta")

    def no_introspection(*args, **kwargs):
        raise AssertionError("parameter names were introspected again")

    monkeypatch.setattr(inspect, "signature", no_introspection)
    assert _Stub._param_names() == ("alpha", "beta")
    assert _Child._param_names() == ("gamma",)
    twin = clone(_Child(gamma=5))
    assert isinstance(twin, _Child) and twin.get_params() == {"gamma": 5}
    assert clone(_Stub(alpha=4)).get_params() == {"alpha": 4, "beta": "x"}
