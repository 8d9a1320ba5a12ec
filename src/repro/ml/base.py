"""Estimator base classes for the ML substrate.

The paper's reference implementation builds on scikit-learn; that library
is not available in this environment, so :mod:`repro.ml` re-implements the
estimator contract (``fit`` / ``predict`` / ``predict_proba`` / ``get_params``
/ ``clone``) that MoRER and the baselines depend on.
"""

from __future__ import annotations

import copy
import functools
import inspect

import numpy as np

__all__ = ["BaseEstimator", "ClassifierMixin", "clone"]


class BaseEstimator:
    """Base class providing parameter introspection and serialisation.

    Subclasses must accept all constructor arguments as keyword arguments
    with defaults and store them verbatim on ``self`` — the same contract
    scikit-learn imposes — so that :func:`clone` and ``to_dict`` work
    without estimator-specific code.
    """

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _param_names(cls):
        # Cached per class: clone() asks on every copy, and the names
        # depend only on the class's own __init__.
        signature = inspect.signature(cls.__init__)
        return tuple(
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind != p.VAR_KEYWORD
        )

    def get_params(self):
        """Return the constructor parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set constructor parameters; unknown names raise ``ValueError``."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def to_dict(self):
        """Serialise the estimator (params + fitted state) to plain data.

        Fitted attributes follow the trailing-underscore convention. Numpy
        arrays are converted to nested lists so the result is JSON-safe.
        """
        state = {"__class__": type(self).__name__, "params": self.get_params()}
        fitted = {}
        for name, value in vars(self).items():
            if name.endswith("_") and not name.startswith("_"):
                fitted[name] = _encode(value)
        state["fitted"] = fitted
        return state

    @classmethod
    def from_dict(cls, state):
        """Rebuild an estimator serialised with :meth:`to_dict`."""
        if state.get("__class__") != cls.__name__:
            raise ValueError(
                f"state is for {state.get('__class__')!r}, not {cls.__name__!r}"
            )
        estimator = cls(**state["params"])
        for name, value in state.get("fitted", {}).items():
            setattr(estimator, name, _decode(value))
        return estimator

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Mixin adding ``score`` (accuracy) to classifiers."""

    def score(self, X, y):
        """Return mean accuracy of ``self.predict(X)`` against ``y``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))


def clone(estimator):
    """Return an unfitted copy of ``estimator`` with identical parameters."""
    params = {
        k: copy.deepcopy(v) for k, v in estimator.get_params().items()
    }
    return type(estimator)(**params)


def _encode(value):
    """Recursively convert fitted state to JSON-safe plain data."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, BaseEstimator):
        return {"__estimator__": type(value).__name__, "state": value.to_dict()}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        encoded = [_encode(v) for v in value]
        return {"__tuple__": encoded} if isinstance(value, tuple) else encoded
    return value


def _decode(value):
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        if "__estimator__" in value:
            from . import ESTIMATOR_REGISTRY

            cls = ESTIMATOR_REGISTRY[value["__estimator__"]]
            return cls.from_dict(value["state"])
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value
