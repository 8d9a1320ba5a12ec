"""Shared fixtures: synthetic ER problems and tiny benchmark splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ERProblem, ProblemSignature
from repro.datasets import load_benchmark


def make_problem(source_a="A", source_b="B", n=120, shift=0.0, seed=0,
                 n_features=4, match_fraction=0.4, with_pairs=True):
    """Synthetic ER problem: matches high similarity, non-matches low.

    ``shift`` moves the similarity distributions so problems with
    different shifts are distinguishable by the distribution tests.
    """
    rng = np.random.default_rng(seed)
    n_matches = int(n * match_fraction)
    n_non = n - n_matches
    # `shift` narrows the gap symmetrically: regimes become
    # distributionally distinct while classes stay separable.
    matches = np.clip(
        rng.normal(0.84 - 0.45 * shift, 0.07, size=(n_matches, n_features)),
        0, 1,
    )
    non_matches = np.clip(
        rng.normal(0.22 + 0.45 * shift, 0.08, size=(n_non, n_features)),
        0, 1,
    )
    features = np.vstack([matches, non_matches])
    labels = np.concatenate(
        [np.ones(n_matches, dtype=int), np.zeros(n_non, dtype=int)]
    )
    order = rng.permutation(n)
    pair_ids = None
    if with_pairs:
        pair_ids = [
            (f"{source_a}-r{i}", f"{source_b}-r{i}") for i in range(n)
        ]
    return ERProblem(
        source_a, source_b, features[order], labels[order],
        None if pair_ids is None else [pair_ids[int(i)] for i in order],
    )


def make_problem_family(n_problems=6, seed=0, **kwargs):
    """A family of problems over distinct source pairs, alternating two
    distribution regimes (so clustering has something to find)."""
    problems = []
    for i in range(n_problems):
        shift = 0.0 if i % 2 == 0 else 0.3
        problems.append(
            make_problem(
                source_a=f"S{2 * i}", source_b=f"S{2 * i + 1}",
                shift=shift, seed=seed + i, **kwargs,
            )
        )
    return problems


#: Regime draws of :func:`make_regime_problems`: fixed, so every seed
#: poses the same cluster structure.
_REGIME_SEED = 20260


def _regimes(count):
    """``count`` similarity regimes over six features, their mean
    vectors pairwise at least 1.2 apart (L1)."""
    rng = np.random.default_rng(_REGIME_SEED)
    regimes = []
    while len(regimes) < count:
        regime = (
            rng.uniform(0.55, 0.97, 6), rng.uniform(0.03, 0.45, 6),
            float(rng.uniform(0.04, 0.08)), float(rng.uniform(0.2, 0.45)),
        )
        means = np.r_[regime[0], regime[1]]
        if all(np.abs(means - np.r_[other[0], other[1]]).sum() >= 1.2
               for other in regimes):
            regimes.append(regime)
    return regimes


def make_regime_problems(n_problems, seed=0, n_regimes=6, prefix="R"):
    """Labelled problems shaped like the benchmark's fit sets: they
    cycle over ``n_regimes`` fixed regimes (match / non-match
    similarity distributions over six features), with log-spaced sizes
    of 16 to 160 pairs in a seeded order."""
    regimes = _regimes(n_regimes)
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.round(np.exp(np.linspace(
        np.log(16), np.log(160), n_problems))).astype(int))
    problems = []
    for i, n_pairs in enumerate(sizes.tolist()):
        match_mean, nonmatch_mean, spread, share = regimes[i % n_regimes]
        n_match = min(n_pairs - 1, max(1, round(n_pairs * share)))
        features = np.vstack([
            rng.normal(match_mean, spread, (n_match, 6)),
            rng.normal(nonmatch_mean, spread, (n_pairs - n_match, 6)),
        ])
        labels = np.r_[np.ones(n_match, int), np.zeros(n_pairs - n_match, int)]
        order = rng.permutation(n_pairs)
        problems.append(ERProblem(
            f"{prefix}{i}a", f"{prefix}{i}b",
            np.clip(features[order], 0.0, 1.0), labels[order],
        ))
    return problems


def exact_ranking(repository, probe, top_k=None):
    """The exact §4.5 search, computed here rather than by the
    repository: every entry's ``sim_p`` to ``probe`` (an ``ERProblem``
    or a raw feature matrix), best first, as ``(cluster_id,
    similarity)`` pairs — all of them, or the ``top_k`` best."""
    features = probe.features if isinstance(probe, ERProblem) else probe
    signature = ProblemSignature(features)
    scored = [
        (
            entry.cluster_id,
            float(repository.test.signature_similarity(
                signature, ProblemSignature(entry.training_features)
            )),
        )
        for entry in repository
    ]
    scored.sort(key=lambda item: item[1], reverse=True)
    return scored if top_k is None else scored[:top_k]


@pytest.fixture
def toy_problem():
    """One labelled synthetic ER problem."""
    return make_problem()


@pytest.fixture
def problem_family():
    """Six synthetic problems in two distribution regimes."""
    return make_problem_family()


@pytest.fixture(scope="session")
def wdc_split():
    """Tiny WDC-computer-like corpus split (shared across tests)."""
    dataset, schema, split = load_benchmark(
        "wdc-computer", scale=0.2, random_state=0
    )
    return dataset, schema, split


@pytest.fixture(scope="session")
def music_split():
    """Tiny Music-like corpus split (shared across tests)."""
    dataset, schema, split = load_benchmark("music", scale=0.2, random_state=0)
    return dataset, schema, split
