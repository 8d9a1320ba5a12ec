"""MoRER core: problems, distribution analysis, graph, budget, repository."""

from .._lazy import lazy_exports
from .budget import BudgetError, distribute_budget, merge_singletons
from .config import (
    CLASSIFIERS,
    CONFIG_FIELDS,
    MoRERConfig,
    check_config_overrides,
    make_classifier,
)
from .distribution import (
    DISTRIBUTION_TESTS,
    ClassifierTwoSampleTest,
    KolmogorovSmirnovTest,
    PopulationStabilityTest,
    WassersteinTest,
    make_distribution_test,
    problem_similarity,
)
from .graph import ERProblemGraph
from .morer import CountingOracle, MoRER, NotFittedError, PERSISTENCE_FORMAT
from .partition_state import PartitionState
from .problem import ERProblem
from .repository import ClusterEntry, ModelRepository
from .selection import SolveResult, decide_cov, pool_problems, select_base
from .signatures import ProblemSignature, SignatureStore
from .sketch_index import SketchIndex, sketch_vector

_MAINTENANCE = [
    "silhouette_scores",
    "cluster_conductance",
    "adjusted_rand_index",
    "perturbation_stability",
    "repository_health",
]

__all__ = [
    "ERProblem",
    "MoRER",
    "MoRERConfig",
    "CountingOracle",
    "ModelRepository",
    "ClusterEntry",
    "ERProblemGraph",
    "PartitionState",
    "PERSISTENCE_FORMAT",
    "SolveResult",
    "select_base",
    "decide_cov",
    "pool_problems",
    "KolmogorovSmirnovTest",
    "WassersteinTest",
    "PopulationStabilityTest",
    "ClassifierTwoSampleTest",
    "DISTRIBUTION_TESTS",
    "make_distribution_test",
    "problem_similarity",
    "ProblemSignature",
    "SignatureStore",
    "SketchIndex",
    "sketch_vector",
    "distribute_budget",
    "merge_singletons",
    "BudgetError",
    "CLASSIFIERS",
    "CONFIG_FIELDS",
    "check_config_overrides",
    "make_classifier",
    "NotFittedError",
    *_MAINTENANCE,
]

# The cluster-stability toolkit is offline analysis; a server never
# runs it, so it loads on first access.
__getattr__ = lazy_exports(globals(), {".maintenance": _MAINTENANCE})
