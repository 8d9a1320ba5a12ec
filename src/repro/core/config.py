"""MoRER configuration (the paper's Table 3 parameter grid)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..ml.forest import RandomForestClassifier
from ..ml.tree import DecisionTreeClassifier

__all__ = [
    "MoRERConfig",
    "make_classifier",
    "check_config_overrides",
    "CONFIG_FIELDS",
    "CLASSIFIERS",
    "DEFAULT_INDEX_THRESHOLD",
]

#: Size at which a structure leaves its exact path: the default of
#: every ``index_threshold`` (:class:`MoRERConfig`, ``ERProblemGraph``,
#: ``ModelRepository``).
DEFAULT_INDEX_THRESHOLD = 128


def check_index_threshold(index_threshold):
    """Validate the one size setting of the exact-vs-indexed switch."""
    if index_threshold < 1:
        raise ValueError("index_threshold must be >= 1")


def _logistic_regression(random_state):
    # Imported on use: a repository of forests never loads it.
    from ..ml.linear import LogisticRegression

    return LogisticRegression(class_weight="balanced")


#: Classifier registry for cluster models.
CLASSIFIERS = {
    "random_forest": lambda random_state: RandomForestClassifier(
        n_estimators=30, max_depth=10, random_state=random_state
    ),
    "decision_tree": lambda random_state: DecisionTreeClassifier(
        max_depth=10, random_state=random_state
    ),
    "logistic_regression": _logistic_regression,
}


def make_classifier(name, random_state=0):
    """Instantiate a cluster classifier by registry name."""
    try:
        factory = CLASSIFIERS[name]
    except KeyError:
        raise KeyError(
            f"unknown classifier {name!r}; choose from {sorted(CLASSIFIERS)}"
        ) from None
    return factory(random_state)


@dataclass
class MoRERConfig:
    """All tunables of MoRER, defaults matching Table 3 (bold values).

    Attributes
    ----------
    distribution_test : str
        ``"ks"`` (default), ``"wd"``, ``"psi"`` or ``"c2st"``.
    test_params : dict
        Extra kwargs for the distribution test (e.g. PSI bins).
    clustering_algorithm : str
        ``"leiden"`` (default), ``"louvain"``, ``"label_propagation"``
        or ``"girvan_newman"``.
    resolution : float
        Leiden/Louvain resolution.
    min_similarity : float
        Edge threshold of the ER problem graph.
    model_generation : str
        ``"al"`` (budget-limited) or ``"supervised"`` (all labels).
    al_method : str
        ``"bootstrap"`` (default) or ``"almser"``.
    b_total : int
        Total labelling budget :math:`b_{tot}` (paper: 1000/1500/2000).
    b_min : int
        Per-cluster minimum :math:`b_{min}`.
    selection : str
        ``"base"`` (:math:`sel_{base}`) or ``"cov"`` (:math:`sel_{cov}`).
    t_cov : float
        Coverage threshold triggering retraining under ``sel_cov``.
    classifier : str
        Cluster model family (see :data:`CLASSIFIERS`).
    committee_k : int
        Bootstrap committee size (paper: 100; scaled default 10).
    batch_size : int
        AL batch size.
    use_record_score : bool
        Enable MoRER's Eq. 11–12 extension of Bootstrap AL.
    index_threshold : int
        The one switch between the paper's exact paths and the serving
        ones, applied by each structure to its own observed size.
        Below it every path is exact: repository search scores every
        entry, a ``sel_cov`` insertion is compared with every vertex,
        and every recluster is a full run. Once the repository holds
        this many entries, search reranks its ``max(8 * top_k, 48)``
        sketch-nearest entries exactly
        (:mod:`repro.core.sketch_index`); once the ER problem graph
        holds this many problems, an insertion is compared (and
        connected) only with its ``max(64, 4 * sqrt(problems))``
        sketch-nearest vertices, and a Leiden recluster replays the
        graph rows past the cursor of the warm
        :class:`~repro.core.partition_state.PartitionState` instead of
        a full run.
    random_state : int
        Master seed.
    """

    distribution_test: str = "ks"
    test_params: dict = field(default_factory=dict)
    clustering_algorithm: str = "leiden"
    resolution: float = 1.0
    min_similarity: float = 0.0
    model_generation: str = "al"
    al_method: str = "bootstrap"
    b_total: int = 1000
    b_min: int = 50
    budget_policy: str = "proportional"
    selection: str = "base"
    t_cov: float = 0.25
    classifier: str = "random_forest"
    committee_k: int = 10
    batch_size: int = 25
    use_record_score: bool = True
    index_threshold: int = DEFAULT_INDEX_THRESHOLD
    random_state: int = 0

    def __post_init__(self):
        if self.model_generation not in ("al", "supervised"):
            raise ValueError("model_generation must be 'al' or 'supervised'")
        if self.al_method not in ("bootstrap", "almser"):
            raise ValueError("al_method must be 'bootstrap' or 'almser'")
        if self.selection not in ("base", "cov"):
            raise ValueError("selection must be 'base' or 'cov'")
        if not 0.0 < self.t_cov <= 1.0:
            raise ValueError("t_cov must be in (0, 1]")
        if self.b_min <= 0 or self.b_total <= 0:
            raise ValueError("budgets must be positive")
        if self.budget_policy not in ("proportional", "uniform"):
            raise ValueError(
                "budget_policy must be 'proportional' or 'uniform'"
            )
        check_index_threshold(self.index_threshold)

    def to_dict(self):
        """Plain-dict form (JSON-safe) for repository manifests."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)


#: Every settable :class:`MoRERConfig` field, in declaration order —
#: the vocabulary that :func:`check_config_overrides` accepts.
CONFIG_FIELDS = tuple(f.name for f in fields(MoRERConfig))


def check_config_overrides(overrides):
    """Reject override keys that name no :class:`MoRERConfig` field.

    Guards every keyword path into a config — ``MoRERConfig(...)``,
    ``MoRER(**overrides)``, ``dataclasses.replace`` and
    :meth:`MoRERConfig.from_dict` — so a typo fails with an error that
    names the valid fields instead of an opaque ``TypeError`` (or,
    worse, a silently ignored knob).
    """
    unknown = sorted(set(overrides) - set(CONFIG_FIELDS))
    if unknown:
        raise ValueError(
            "unknown MoRERConfig field(s) "
            + ", ".join(repr(name) for name in unknown)
            + "; valid fields: " + ", ".join(CONFIG_FIELDS)
        )


_generated_config_init = MoRERConfig.__init__


def _checked_config_init(self, *args, **kwargs):
    check_config_overrides(kwargs)
    _generated_config_init(self, *args, **kwargs)


_checked_config_init.__doc__ = _generated_config_init.__doc__
_checked_config_init.__wrapped__ = _generated_config_init
MoRERConfig.__init__ = _checked_config_init
