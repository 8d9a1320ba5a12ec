"""Shared evaluation harness for the paper's experiments.

Protocol (§5.2): every method is given the initial problems
:math:`\\mathcal{P_I}` (with labels / a labelling budget) and evaluated
by precision / recall / F1 over the predicted matches of **all**
unsolved problems :math:`\\mathcal{P_U}`. Runtime covers training-data
selection, model training and classification.

Budgets and corpus sizes are scaled down relative to the paper (see
EXPERIMENTS.md); the harness exposes them as parameters so any larger
configuration can be re-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    AlmserActiveLearner,
    AnyMatchClassifier,
    DittoClassifier,
    SudowoodoClassifier,
    TransER,
    UnicornClassifier,
)
from ..core import MoRER, MoRERConfig
from ..core.morer import CountingOracle
from ..core.selection import pool_problems
from ..datasets import pairs_for_problem, record_index
from ..ml import RandomForestClassifier, precision_recall_f1
from ..ml.utils import check_random_state

__all__ = [
    "MethodResult",
    "evaluate_morer",
    "evaluate_almser_standalone",
    "evaluate_transer",
    "evaluate_lm_baseline",
    "subsample_problems",
    "concat_predictions",
]


@dataclass
class MethodResult:
    """One method × dataset × budget evaluation outcome."""

    method: str
    dataset: str
    budget: object
    precision: float
    recall: float
    f1: float
    runtime_seconds: float
    labels_used: int = 0
    extra: dict = field(default_factory=dict)

    def prf(self):
        """``(precision, recall, f1)`` triple."""
        return self.precision, self.recall, self.f1


def concat_predictions(problems, predictions_per_problem):
    """Score pooled predictions against pooled ground truth."""
    truth = np.concatenate([p.labels for p in problems])
    predictions = np.concatenate(predictions_per_problem)
    return precision_recall_f1(truth, predictions)


def subsample_problems(problems, fraction, random_state=None):
    """Per-problem random subsample of vectors (the 50% training regime)."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return list(problems)
    rng = check_random_state(random_state)
    output = []
    for problem in problems:
        take = max(2, int(round(fraction * problem.n_pairs)))
        indices = rng.choice(problem.n_pairs, size=take, replace=False)
        output.append(problem.subset(indices))
    return output


# -- MoRER ----------------------------------------------------------------------


def evaluate_morer(dataset_name, split, budget=None, al_method="bootstrap",
                   distribution_test="ks", selection="base", t_cov=0.25,
                   supervised_fraction=None, clustering="leiden",
                   use_record_score=True, b_min=None, random_state=0,
                   solve_batch_size=None):
    """Run MoRER end-to-end and score it on the unsolved problems.

    ``budget=None`` with ``supervised_fraction`` set runs the supervised
    variant of Table 4 (all / 50% of the initial vectors as training).
    The unsolved problems are served through :meth:`MoRER.solve_batch`
    in chunks of ``solve_batch_size`` (default 1: one solve at a time);
    under ``sel_cov`` each chunk costs one integration + recluster.
    """
    initial = split.initial
    if supervised_fraction is not None:
        initial = subsample_problems(
            initial, supervised_fraction, random_state
        )
        config = MoRERConfig(
            distribution_test=distribution_test,
            clustering_algorithm=clustering,
            model_generation="supervised",
            selection=selection,
            t_cov=t_cov,
            random_state=random_state,
        )
        label = "morer-supervised"
    else:
        total_vectors = sum(p.n_pairs for p in initial)
        b_min_eff = b_min if b_min is not None else max(
            10, min(50, budget // 10)
        )
        config = MoRERConfig(
            distribution_test=distribution_test,
            clustering_algorithm=clustering,
            model_generation="al",
            al_method=al_method,
            b_total=min(budget, total_vectors),
            b_min=b_min_eff,
            selection=selection,
            t_cov=t_cov,
            use_record_score=use_record_score,
            random_state=random_state,
        )
        label = f"morer+{al_method}"

    started = time.perf_counter()
    morer = MoRER(config)
    morer.fit(initial)
    predictions = []
    extra_labels = 0
    # sel_base never reads labels (and must not see them); sel_cov
    # uses them as the retraining oracle.
    unsolved = [
        problem if selection == "cov" else problem.without_labels()
        for problem in split.unsolved
    ]
    size = solve_batch_size or 1
    for start in range(0, len(unsolved), size):
        for result in morer.solve_batch(unsolved[start:start + size]):
            extra_labels += result.labels_spent
            predictions.append(result.predictions)
    runtime = time.perf_counter() - started
    precision, recall, f1 = concat_predictions(split.unsolved, predictions)
    return MethodResult(
        method=label,
        dataset=dataset_name,
        budget=budget if budget is not None else f"{supervised_fraction:.0%}",
        precision=precision,
        recall=recall,
        f1=f1,
        runtime_seconds=runtime,
        labels_used=morer.total_labels_spent(),
        extra={
            "n_clusters": len(morer.clusters_),
            "timings": dict(morer.timings),
            "overhead_seconds": morer.overhead_seconds(),
            "extra_labels": extra_labels,
            "selection": selection,
        },
    )


# -- Almser standalone -------------------------------------------------------------


def evaluate_almser_standalone(dataset_name, split, budget, random_state=0):
    """Almser over the union of all initial problems, one global model."""
    started = time.perf_counter()
    features, labels, pair_ids = pool_problems(split.initial)
    oracle = CountingOracle(labels)
    learner = AlmserActiveLearner(random_state=random_state)
    budget = min(budget, len(labels))
    indices, selected_labels = learner.select(
        features, oracle, budget, pair_ids=pair_ids
    )
    model = RandomForestClassifier(
        n_estimators=30, max_depth=10, random_state=random_state
    ).fit(features[indices], selected_labels)
    predictions = [model.predict(p.features) for p in split.unsolved]
    runtime = time.perf_counter() - started
    precision, recall, f1 = concat_predictions(split.unsolved, predictions)
    return MethodResult(
        method="almser",
        dataset=dataset_name,
        budget=budget,
        precision=precision,
        recall=recall,
        f1=f1,
        runtime_seconds=runtime,
        labels_used=oracle.count,
    )


# -- TransER -----------------------------------------------------------------------


def evaluate_transer(dataset_name, split, fraction=0.5, random_state=0):
    """TransER: pooled initial vectors as source, each unsolved as target."""
    started = time.perf_counter()
    initial = subsample_problems(split.initial, fraction, random_state)
    features, labels, _ = pool_problems(initial)
    transfer = TransER(random_state=random_state).fit(features, labels)
    predictions = []
    pseudo_total = 0
    for problem in split.unsolved:
        transfer.fit_target(problem.features)
        pseudo_total += transfer.n_pseudo_labels_
        predictions.append(transfer.predict(problem.features))
    runtime = time.perf_counter() - started
    precision, recall, f1 = concat_predictions(split.unsolved, predictions)
    return MethodResult(
        method="transer",
        dataset=dataset_name,
        budget=f"{fraction:.0%}",
        precision=precision,
        recall=recall,
        f1=f1,
        runtime_seconds=runtime,
        labels_used=len(labels),
        extra={"pseudo_labels": pseudo_total},
    )


# -- language-model simulators --------------------------------------------------------


def evaluate_lm_baseline(name, dataset_name, dataset, split, budget=None,
                         fraction=None, random_state=0, epochs=None):
    """Run one of the LM simulators under the paper's data regime.

    Supervised regimes (Ditto, Unicorn) pass ``fraction``; equal-budget
    regimes (Sudowoodo, AnyMatch) pass ``budget``.
    """
    index = record_index(dataset)
    train_pairs = []
    train_labels = []
    initial = split.initial
    if fraction is not None:
        initial = subsample_problems(initial, fraction, random_state)
    for problem in initial:
        train_pairs.extend(pairs_for_problem(problem, index))
        train_labels.extend(problem.labels.tolist())
    train_labels = np.asarray(train_labels)

    started = time.perf_counter()
    if name == "ditto":
        model = DittoClassifier(
            n_layers=1, epochs=epochs or 8, augment_rate=0.05,
            random_state=random_state,
        ).fit(train_pairs, train_labels)
    elif name == "unicorn":
        model = UnicornClassifier(
            epochs=epochs or 8, random_state=random_state
        ).fit(train_pairs, train_labels)
    elif name == "sudowoodo":
        records = [r for source in dataset.sources for r in source.records]
        model = SudowoodoClassifier(
            pretrain_epochs=2, epochs=epochs or 8, random_state=random_state
        )
        model.fit_semi_supervised(
            records, train_pairs, train_labels, budget=budget or 100
        )
    elif name == "anymatch":
        model = AnyMatchClassifier(
            sample_size=budget or 100, random_state=random_state
        ).fit(train_pairs, train_labels)
    else:
        raise KeyError(f"unknown LM baseline {name!r}")

    predictions = []
    for problem in split.unsolved:
        pairs = pairs_for_problem(problem, index)
        predictions.append(model.predict(pairs))
    runtime = time.perf_counter() - started
    precision, recall, f1 = concat_predictions(split.unsolved, predictions)
    return MethodResult(
        method=name,
        dataset=dataset_name,
        budget=budget if budget is not None else f"{fraction:.0%}",
        precision=precision,
        recall=recall,
        f1=f1,
        runtime_seconds=runtime,
        labels_used=budget or len(train_labels),
    )
