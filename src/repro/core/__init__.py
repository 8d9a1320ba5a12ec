"""MoRER core: problems, distribution analysis, graph, budget, repository."""

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
from .maintenance import (
    adjusted_rand_index,
    cluster_conductance,
    perturbation_stability,
    repository_health,
    silhouette_scores,
)
from .morer import CountingOracle, MoRER, NotFittedError, PERSISTENCE_FORMAT
from .partition_state import PartitionState
from .problem import ERProblem
from .repository import ClusterEntry, ModelRepository
from .selection import (
    SolveResult,
    decide_cov,
    pool_problems,
    select_base,
    select_cov,
)
from .signatures import (
    ProblemSignature,
    SignatureStore,
    pairwise_similarities,
    problem_signature,
    search_similarities,
)
from .sketch_index import SketchIndex, sketch_vector

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
    "select_cov",
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
    "problem_signature",
    "pairwise_similarities",
    "search_similarities",
    "sketch_vector",
    "distribute_budget",
    "merge_singletons",
    "BudgetError",
    "CLASSIFIERS",
    "CONFIG_FIELDS",
    "check_config_overrides",
    "make_classifier",
    "NotFittedError",
    "silhouette_scores",
    "cluster_conductance",
    "adjusted_rand_index",
    "perturbation_stability",
    "repository_health",
]
