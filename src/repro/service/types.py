"""Typed requests and responses of the serving API.

Everything that crosses the service boundary — in-process through
:class:`~repro.service.MoRERService` or over HTTP through the gateway —
is one of these dataclasses, each with a ``to_dict`` / ``from_dict``
pair whose dict form is JSON-safe. Deserialisation validates loudly:
malformed payloads raise :class:`~repro.service.InvalidRequest` naming
the offending field, never an opaque ``KeyError``/``TypeError`` from
deep inside core.

``NaN`` similarities (``sel_cov`` results have no search similarity)
are encoded as ``null`` so the wire format stays strict JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.problem import ERProblem
from .errors import InvalidRequest

__all__ = [
    "SolveRequest",
    "SolveResponse",
    "FitRequest",
    "RepositoryStats",
    "problem_from_dict",
]

#: Strategies a :class:`SolveRequest` may name (None = config default).
_STRATEGIES = ("base", "cov")


def _require(data, key, kind, what):
    """``data[key]`` with an :class:`InvalidRequest` naming the field."""
    if not isinstance(data, dict):
        raise InvalidRequest(f"{what} must be a JSON object, got "
                             f"{type(data).__name__}")
    if key not in data:
        raise InvalidRequest(f"{what} is missing required field {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise InvalidRequest(
            f"{what} field {key!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def problem_from_dict(data):
    """Rebuild an :class:`~repro.core.ERProblem`, validating loudly."""
    source_a = _require(data, "source_a", str, "problem")
    source_b = _require(data, "source_b", str, "problem")
    features = _require(data, "features", list, "problem")
    try:
        return ERProblem(
            source_a, source_b, features,
            labels=data.get("labels"),
            pair_ids=data.get("pair_ids"),
            feature_names=data.get("feature_names"),
        )
    except (ValueError, TypeError) as exc:
        raise InvalidRequest(
            f"invalid problem ({source_a}, {source_b}): {exc}"
        ) from exc


@dataclass
class SolveRequest:
    """One problem to solve, with an optional per-request strategy.

    Attributes
    ----------
    problem : ERProblem
        The probe. Labels, when present, only feed the ``sel_cov``
        retraining oracle — never prediction (same contract as
        :meth:`MoRER.solve`).
    strategy : {"base", "cov"}, optional
        Overrides the service's configured default per request.
    """

    problem: ERProblem
    strategy: str = None

    def __post_init__(self):
        if self.strategy is not None and self.strategy not in _STRATEGIES:
            raise InvalidRequest(
                f"strategy must be one of {_STRATEGIES}, got "
                f"{self.strategy!r}"
            )

    def to_dict(self):
        return {
            "problem": self.problem.to_dict(),
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data):
        problem = problem_from_dict(
            _require(data, "problem", dict, "solve request")
        )
        strategy = data.get("strategy")
        if strategy is not None and not isinstance(strategy, str):
            raise InvalidRequest("solve request field 'strategy' must be "
                                 "a string or null")
        return cls(problem=problem, strategy=strategy)


@dataclass
class SolveResponse:
    """The typed mirror of :class:`~repro.core.SolveResult`.

    ``predictions`` is the 0/1 match vector aligned with the request
    problem's feature rows; the remaining fields carry the provenance
    a client needs (which entry served it, whether a retrain or a new
    model happened, labels spent, Eq. 13 coverage, attributed
    overhead). ``batch_id`` names the scheduler tick that served a
    ``cov`` request (``None`` for ``base`` solves) — the gateway's
    structured access log carries it, so one coalesced batch can be
    correlated across the request logs of every client it served.
    """

    predictions: np.ndarray
    cluster_id: int
    similarity: float = float("nan")
    new_model: bool = False
    retrained: bool = False
    labels_spent: int = 0
    coverage: float = 0.0
    overhead_seconds: float = 0.0
    batch_id: int = None

    @classmethod
    def from_result(cls, result):
        """Build from a core :class:`~repro.core.SolveResult`."""
        return cls(
            predictions=np.asarray(result.predictions, dtype=int),
            cluster_id=int(result.cluster_id),
            similarity=float(result.similarity),
            new_model=bool(result.new_model),
            retrained=bool(result.retrained),
            labels_spent=int(result.labels_spent),
            coverage=float(result.coverage),
            overhead_seconds=float(result.overhead_seconds),
        )

    def to_dict(self):
        similarity = self.similarity
        return {
            "predictions": np.asarray(self.predictions, dtype=int).tolist(),
            "cluster_id": int(self.cluster_id),
            "similarity": (
                None if similarity is None or math.isnan(similarity)
                else float(similarity)
            ),
            "new_model": bool(self.new_model),
            "retrained": bool(self.retrained),
            "labels_spent": int(self.labels_spent),
            "coverage": float(self.coverage),
            "overhead_seconds": float(self.overhead_seconds),
            "batch_id": (
                None if self.batch_id is None else int(self.batch_id)
            ),
        }

    @classmethod
    def from_dict(cls, data):
        predictions = _require(data, "predictions", list, "solve response")
        similarity = data.get("similarity")
        batch_id = data.get("batch_id")
        return cls(
            predictions=np.asarray(predictions, dtype=int),
            cluster_id=int(_require(data, "cluster_id", int,
                                    "solve response")),
            similarity=float("nan") if similarity is None
            else float(similarity),
            new_model=bool(data.get("new_model", False)),
            retrained=bool(data.get("retrained", False)),
            labels_spent=int(data.get("labels_spent", 0)),
            coverage=float(data.get("coverage", 0.0)),
            overhead_seconds=float(data.get("overhead_seconds", 0.0)),
            batch_id=None if batch_id is None else int(batch_id),
        )


@dataclass
class FitRequest:
    """Initial labelled problems to (re)fit the repository on."""

    problems: list

    def __post_init__(self):
        if not self.problems:
            raise InvalidRequest("fit request needs at least one problem")
        for problem in self.problems:
            if problem.labels is None:
                raise InvalidRequest(
                    f"fit problem {problem.key} has no labels; "
                    "initialisation needs a labelling oracle"
                )

    def to_dict(self):
        return {"problems": [p.to_dict() for p in self.problems]}

    @classmethod
    def from_dict(cls, data):
        problems = _require(data, "problems", list, "fit request")
        return cls(problems=[problem_from_dict(p) for p in problems])


@dataclass
class RepositoryStats:
    """Operational snapshot of a served repository.

    Combines repository facts (entries, problems, labels spent),
    MoRER's runtime counters/timings, and the service's serving state
    under ``service``: its counts (solves by strategy, dispatched
    micro-batches, rejections, WAL records and checkpoints, each read
    from the ``/metrics`` series that records it), queue depth, limits
    and durability status.
    """

    fitted: bool
    n_entries: int = 0
    n_problems: int = 0
    total_labels_spent: int = 0
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "fitted": bool(self.fitted),
            "n_entries": int(self.n_entries),
            "n_problems": int(self.n_problems),
            "total_labels_spent": int(self.total_labels_spent),
            "counters": dict(self.counters),
            "timings": dict(self.timings),
            "service": dict(self.service),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            fitted=bool(_require(data, "fitted", bool, "stats")),
            n_entries=int(data.get("n_entries", 0)),
            n_problems=int(data.get("n_problems", 0)),
            total_labels_spent=int(data.get("total_labels_spent", 0)),
            counters=dict(data.get("counters", {})),
            timings=dict(data.get("timings", {})),
            service=dict(data.get("service", {})),
        )
