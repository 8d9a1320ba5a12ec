"""ER problem graph (§4.3) and budget distribution (§4.4) tests."""

import pytest

from repro.core import (
    BudgetError,
    ERProblemGraph,
    KolmogorovSmirnovTest,
    distribute_budget,
    merge_singletons,
)
from tests.conftest import make_problem, make_problem_family


# -- problem graph ---------------------------------------------------------------


def test_graph_build_and_edges(problem_family):
    graph = ERProblemGraph.build(problem_family, "ks")
    assert len(graph) == 6
    keys = [p.key for p in problem_family]
    # Same-regime problems are more similar than cross-regime ones.
    same = graph.similarity(keys[0], keys[2])
    cross = graph.similarity(keys[0], keys[1])
    assert same > cross


def test_graph_rejects_duplicate_problem(problem_family):
    graph = ERProblemGraph.build(problem_family[:2], "ks")
    with pytest.raises(ValueError, match="already"):
        graph.add_problem(problem_family[0])


def test_graph_min_similarity_prunes_edges(problem_family):
    dense = ERProblemGraph.build(problem_family, "ks", min_similarity=0.0)
    sparse = ERProblemGraph.build(problem_family, "ks", min_similarity=0.9)
    dense_edges = dense.to_graph().number_of_edges()
    sparse_edges = sparse.to_graph().number_of_edges()
    assert sparse_edges < dense_edges


def test_graph_clustering_separates_regimes(problem_family):
    graph = ERProblemGraph.build(problem_family, "ks")
    clusters = graph.cluster("leiden", random_state=0)
    assert len(clusters) == 2
    even = {p.key for i, p in enumerate(problem_family) if i % 2 == 0}
    odd = {p.key for i, p in enumerate(problem_family) if i % 2 == 1}
    assert {frozenset(c) for c in clusters} == {
        frozenset(even), frozenset(odd)
    }


@pytest.mark.parametrize("algorithm", ["louvain", "label_propagation",
                                       "girvan_newman"])
def test_graph_clustering_alternatives_run(problem_family, algorithm):
    graph = ERProblemGraph.build(problem_family, "ks")
    clusters = graph.cluster(algorithm, random_state=0)
    covered = set()
    for cluster in clusters:
        covered |= cluster
    assert covered == {p.key for p in problem_family}


def test_graph_unknown_algorithm(problem_family):
    graph = ERProblemGraph.build(problem_family[:2], "ks")
    with pytest.raises(KeyError, match="clustering"):
        graph.cluster("kmeans")


# -- budget distribution --------------------------------------------------------------


def _clusters_and_problems():
    problems = make_problem_family(5, n=100)
    by_key = {p.key: p for p in problems}
    clusters = [
        {problems[0].key, problems[2].key, problems[4].key},
        {problems[1].key},
        {problems[3].key},
    ]
    return clusters, by_key


def test_budget_minimum_guaranteed():
    clusters, by_key = _clusters_and_problems()
    merged, budgets = distribute_budget(clusters, by_key, b_total=300,
                                        b_min=50)
    assert len(merged) == 3
    assert all(b >= 50 for b in budgets)
    assert sum(budgets) <= 300


def test_budget_proportional_to_cluster_size():
    clusters, by_key = _clusters_and_problems()
    _, budgets = distribute_budget(clusters, by_key, b_total=400, b_min=20)
    # The 3-problem cluster has 3x the vectors of each singleton.
    assert budgets[0] > budgets[1]
    assert budgets[0] > budgets[2]


def test_budget_never_exceeds_cluster_vectors():
    problems = [make_problem(n=30, seed=0)]
    by_key = {problems[0].key: problems[0]}
    _, budgets = distribute_budget([{problems[0].key}], by_key,
                                   b_total=500, b_min=10)
    assert budgets[0] <= 30


def test_budget_eq4_triggers_singleton_merge():
    """4 clusters x b_min=50 > b_total=180 -> singletons merge."""
    problems = make_problem_family(5, n=60)
    by_key = {p.key: p for p in problems}
    clusters = [{problems[0].key, problems[1].key}] + [
        {p.key} for p in problems[2:]
    ]
    test = KolmogorovSmirnovTest()
    merged, budgets = distribute_budget(
        clusters, by_key, b_total=180, b_min=50,
        similarity=lambda a, b: test.problem_similarity(
            a.features, b.features
        ),
    )
    assert len(merged) < len(clusters)
    assert sum(len(c) for c in merged) == 5
    assert sum(budgets) <= 180


def test_budget_merge_requires_similarity():
    problems = make_problem_family(4, n=40)
    by_key = {p.key: p for p in problems}
    clusters = [{p.key} for p in problems]
    with pytest.raises(BudgetError, match="similarity"):
        distribute_budget(clusters, by_key, b_total=100, b_min=50)


def test_budget_total_too_small():
    problems = [make_problem(n=20)]
    by_key = {problems[0].key: problems[0]}
    with pytest.raises(BudgetError, match="cannot fund"):
        distribute_budget([{problems[0].key}], by_key, b_total=10, b_min=50)


def test_budget_uniform_policy():
    clusters, by_key = _clusters_and_problems()
    _, budgets = distribute_budget(clusters, by_key, b_total=300, b_min=10,
                                   policy="uniform")
    assert budgets[1] == budgets[2] == 100


def test_budget_unknown_policy():
    clusters, by_key = _clusters_and_problems()
    with pytest.raises(ValueError, match="policy"):
        distribute_budget(clusters, by_key, 300, policy="greedy")


def test_merge_singletons_all_singletons_collapse():
    problems = make_problem_family(3, n=30)
    by_key = {p.key: p for p in problems}
    merged = merge_singletons(
        [{p.key} for p in problems], by_key, lambda a, b: 1.0
    )
    assert len(merged) == 1
    assert merged[0] == {p.key for p in problems}


def test_merge_singletons_picks_most_similar_cluster():
    a = make_problem("A", "B", seed=0)
    b = make_problem("C", "D", seed=1)
    shifted = make_problem("E", "F", shift=0.35, seed=2)
    lonely = make_problem("G", "H", shift=0.35, seed=3)
    by_key = {p.key: p for p in (a, b, shifted, lonely)}
    test = KolmogorovSmirnovTest()
    merged = merge_singletons(
        [{a.key, b.key}, {shifted.key, lonely.key}, {lonely.key}]
        if False else [{a.key, b.key}, {shifted.key}, {lonely.key}],
        by_key,
        lambda x, y: test.problem_similarity(x.features, y.features),
    )
    # The two shifted singletons cannot join each other (both singleton);
    # they join the most similar non-singleton — which is the only one.
    assert len(merged) == 1
    assert merged[0] == {a.key, b.key, shifted.key, lonely.key}
