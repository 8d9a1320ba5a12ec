"""Build ER problems from multi-source datasets + paper-style splits.

The paper pre-computes similarity feature vectors per data source pair
(§5.2) and then splits:

* **Dexter**: the 276 ER problems are split 50/50 into initial problems
  :math:`\\mathcal{P_I}` and unsolved problems :math:`\\mathcal{P_U}`
  (``ratio_init``);
* **WDC-computer / Music**: the provided train/test record-pair split is
  kept — each source pair yields a *train* problem (in
  :math:`\\mathcal{P_I}`) and a *test* problem (in :math:`\\mathcal{P_U}`).

Candidate pairs mix all true matches with hard negatives (pairs sharing
title tokens) and random negatives; the mix is controlled so the
match/non-match ratio mirrors the original corpora (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.problem import ERProblem
from ..ml.utils import check_random_state
from ..similarity.tokenize import word_tokens
from .camera import camera_schema, generate_camera_dataset
from .computer import computer_schema, generate_computer_dataset
from .music import generate_music_dataset, music_schema

__all__ = [
    "ProblemSplit",
    "build_er_problems",
    "split_problems",
    "split_problem_vectors",
    "load_benchmark",
    "record_index",
    "pairs_for_problem",
    "BENCHMARKS",
]


def record_index(dataset):
    """``record_id -> Record`` lookup over all sources of a dataset.

    The language-model baselines need the raw records behind a
    problem's ``pair_ids`` (they classify serialised text, not
    similarity vectors).
    """
    index = {}
    for source in dataset.sources:
        for record in source.records:
            index[record.record_id] = record
    return index


def pairs_for_problem(problem, index):
    """Materialise ``(record_a, record_b)`` pairs behind an ER problem."""
    if problem.pair_ids is None:
        raise ValueError(f"problem {problem.key} carries no pair ids")
    return [(index[a], index[b]) for a, b in problem.pair_ids]


@dataclass
class ProblemSplit:
    """The paper's :math:`\\mathcal{P_I}` / :math:`\\mathcal{P_U}` split.

    Problems in ``unsolved`` keep their ground-truth labels so the
    harness can score predictions, but methods must only ever see
    ``problem.without_labels()``.
    """

    initial: list
    unsolved: list

    def __post_init__(self):
        keys = [p.key for p in self.initial] + [p.key for p in self.unsolved]
        if len(set(keys)) != len(keys):
            raise ValueError("a source pair occurs in both splits")


def build_er_problems(
    dataset,
    schema,
    max_pairs_per_problem=400,
    match_fraction=0.3,
    random_state=None,
):
    """Compute the similarity feature vectors of every ER problem.

    Parameters
    ----------
    dataset : MultiSourceDataset
    schema : ComparisonSchema
        Shared feature space of the domain.
    max_pairs_per_problem : int
        Cap per ER problem (paper-scale corpora are scaled down; the cap
        keeps per-problem sizes comparable to the original ratios).
    match_fraction : float
        Target fraction of matches among a problem's pairs; negatives
        are sampled to approach it (Table 2: Dexter ≈ 0.33,
        WDC-computer ≈ 0.06, Music ≈ 0.04).
    random_state : int or numpy.random.Generator, optional

    Returns
    -------
    list of ERProblem
        One labelled problem per source pair that produced at least one
        match and one non-match.
    """
    rng = check_random_state(random_state)
    problems = []
    for source_a, source_b in dataset.source_pairs():
        problem = _problem_for_pair(
            dataset, schema, source_a, source_b,
            max_pairs_per_problem, match_fraction, rng,
        )
        if problem is not None:
            problems.append(problem)
    return problems


def _problem_for_pair(dataset, schema, source_a, source_b, max_pairs,
                      match_fraction, rng):
    records_a = list(dataset.source(source_a).records)
    records_b = list(dataset.source(source_b).records)
    intra = source_a == source_b

    match_pairs = []
    if intra:
        by_entity = {}
        for record in records_a:
            by_entity.setdefault(record.entity_id, []).append(record)
        for members in by_entity.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    match_pairs.append((members[i], members[j]))
    else:
        by_entity_b = {}
        for record in records_b:
            by_entity_b.setdefault(record.entity_id, []).append(record)
        for record in records_a:
            for partner in by_entity_b.get(record.entity_id, ()):
                match_pairs.append((record, partner))
    if not match_pairs:
        return None

    n_matches = len(match_pairs)
    max_matches = max(1, int(max_pairs * match_fraction))
    if n_matches > max_matches:
        keep = rng.choice(n_matches, size=max_matches, replace=False)
        match_pairs = [match_pairs[int(i)] for i in keep]
        n_matches = len(match_pairs)

    n_negatives_target = min(
        max_pairs - n_matches,
        int(round(n_matches * (1.0 - match_fraction) / match_fraction)),
    )
    negatives = _sample_negatives(
        records_a, records_b, intra, n_negatives_target, rng
    )
    if not negatives:
        return None

    pairs = match_pairs + negatives
    labels = np.concatenate(
        [np.ones(len(match_pairs), dtype=int),
         np.zeros(len(negatives), dtype=int)]
    )
    features = schema.compare_pairs(
        [(a.attributes, b.attributes) for a, b in pairs]
    )
    pair_ids = [(a.record_id, b.record_id) for a, b in pairs]
    order = rng.permutation(len(pairs))
    return ERProblem(
        source_a, source_b,
        features[order], labels[order],
        [pair_ids[int(i)] for i in order],
        schema.feature_names,
    )


def _sample_negatives(records_a, records_b, intra, target, rng):
    """Hard negatives (shared title token) topped up with random ones."""
    if target <= 0:
        return []
    # dict.fromkeys, not set: which hard negatives are drawn must not
    # follow the process's string hash seed.
    token_index_b = {}
    for record in records_b:
        for token in dict.fromkeys(word_tokens(record.get("title"))):
            token_index_b.setdefault(token, []).append(record)

    seen = set()
    hard = []
    order = rng.permutation(len(records_a))
    for index in order:
        record = records_a[int(index)]
        for token in dict.fromkeys(word_tokens(record.get("title"))):
            for partner in token_index_b.get(token, ()):
                if partner is record:
                    continue
                if record.entity_id == partner.entity_id:
                    continue
                key = _pair_key(record, partner, intra)
                if key is None or key in seen:
                    continue
                seen.add(key)
                hard.append((record, partner))
        if len(hard) >= target:
            break
    if len(hard) > target // 2:
        keep = rng.choice(len(hard), size=target // 2, replace=False)
        hard = [hard[int(i)] for i in keep]

    negatives = list(hard)
    attempts = 0
    while len(negatives) < target and attempts < target * 20:
        attempts += 1
        record = records_a[int(rng.integers(0, len(records_a)))]
        partner = records_b[int(rng.integers(0, len(records_b)))]
        if partner is record or record.entity_id == partner.entity_id:
            continue
        key = _pair_key(record, partner, intra)
        if key is None or key in seen:
            continue
        seen.add(key)
        negatives.append((record, partner))
    return negatives


def _pair_key(record, partner, intra):
    if intra:
        ordered = tuple(sorted((record.record_id, partner.record_id)))
        return ordered
    return (record.record_id, partner.record_id)


def split_problems(problems, ratio_init=0.5, random_state=None):
    """Dexter-style split: whole ER problems go to one side or the other."""
    if not 0 < ratio_init < 1:
        raise ValueError("ratio_init must be in (0, 1)")
    rng = check_random_state(random_state)
    order = rng.permutation(len(problems))
    n_init = max(1, int(round(ratio_init * len(problems))))
    n_init = min(n_init, len(problems) - 1)
    initial = [problems[int(i)] for i in order[:n_init]]
    unsolved = [problems[int(i)] for i in order[n_init:]]
    return ProblemSplit(initial=initial, unsolved=unsolved)


def split_problem_vectors(problems, test_fraction=0.5, random_state=None):
    """WDC/Music-style split: each problem splits into train + test halves.

    The two halves become distinct ER problems over suffixed source ids,
    exactly as the paper constructs ``(D1train, D2train)`` and
    ``(D1test, D2test)`` (§5.2).
    """
    rng = check_random_state(random_state)
    initial, unsolved = [], []
    for problem in problems:
        n = problem.n_pairs
        if n < 4:
            continue
        order = rng.permutation(n)
        n_test = max(1, int(round(test_fraction * n)))
        n_test = min(n_test, n - 1)
        test_idx, train_idx = order[:n_test], order[n_test:]
        train = problem.subset(train_idx)
        test = problem.subset(test_idx)
        initial.append(
            ERProblem(
                f"{problem.source_a}train", f"{problem.source_b}train",
                train.features, train.labels, train.pair_ids,
                problem.feature_names,
            )
        )
        unsolved.append(
            ERProblem(
                f"{problem.source_a}test", f"{problem.source_b}test",
                test.features, test.labels, test.pair_ids,
                problem.feature_names,
            )
        )
    return ProblemSplit(initial=initial, unsolved=unsolved)


def load_benchmark(name, scale=1.0, random_state=0, ratio_init=0.5):
    """One-call loader for the three paper corpora.

    Parameters
    ----------
    name : {"dexter", "wdc-computer", "music"}
    scale : float
        Multiplies entity population and per-problem pair caps; 1.0 is
        the scaled-down default documented in EXPERIMENTS.md.
    random_state : int
    ratio_init : float
        Fraction of ER problems used to initialise the repository
        (Table 3: 50% default, 30% alternative). Only affects Dexter;
        the other corpora use the train/test vector split.

    Returns
    -------
    (MultiSourceDataset, ComparisonSchema, ProblemSplit)
    """
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; choose from "
                       f"{sorted(BENCHMARKS)}")
    config = BENCHMARKS[name]
    dataset = config["generate"](
        n_entities=max(8, int(config["n_entities"] * scale)),
        random_state=random_state,
    )
    schema = config["schema"]()
    problems = build_er_problems(
        dataset,
        schema,
        max_pairs_per_problem=max(20, int(config["max_pairs"] * scale)),
        match_fraction=config["match_fraction"],
        random_state=random_state + 1,
    )
    if config["split"] == "problems":
        split = split_problems(problems, ratio_init, random_state + 2)
    else:
        split = split_problem_vectors(problems, 0.5, random_state + 2)
    return dataset, schema, split


#: Benchmark registry; numbers chosen so the per-problem pair counts and
#: match ratios mirror Table 2 proportions at the scaled-down default.
BENCHMARKS = {
    "dexter": {
        "generate": generate_camera_dataset,
        "schema": camera_schema,
        "n_entities": 220,
        "max_pairs": 320,
        "match_fraction": 0.33,
        "split": "problems",
    },
    "wdc-computer": {
        "generate": generate_computer_dataset,
        "schema": computer_schema,
        "n_entities": 180,
        "max_pairs": 900,
        "match_fraction": 0.065,
        "split": "vectors",
    },
    "music": {
        "generate": generate_music_dataset,
        "schema": music_schema,
        "n_entities": 260,
        "max_pairs": 1000,
        "match_fraction": 0.042,
        "split": "vectors",
    },
}
