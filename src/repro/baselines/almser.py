"""Almser: graph-boosted active learning for multi-source ER.

Reimplementation of Primpeli & Bizer (ISWC 2021) from the paper's
description (§3, §4.4): a committee votes on every unlabeled pair, a
*match graph* is built from predicted + labelled matches, and two graph
signals correct the committee —

* **false-negative signal**: a pair predicted non-match whose records
  are connected through the transitive closure of the match graph is
  probably a match;
* **false-positive signal**: a predicted match edge that is a bridge or
  crosses a cheap minimum cut of its component is probably not.

Query selection is driven by committee uncertainty plus
committee/graph disagreement, in batches (the paper modified the
original implementation for batch processing; so does this one).
Optionally, training data is augmented with *graph-inferred labels*
from cleaned connected components, as in the original study.
"""

from __future__ import annotations

import numpy as np

from ..graphcluster import Graph, bridges, connected_components, min_cut_edges
from ..ml.forest import BaggingClassifier
from ..ml.tree import DecisionTreeClassifier
from ..ml.utils import check_random_state
from .bootstrap import seed_selection

__all__ = ["AlmserActiveLearner"]

_MAX_COMPONENT_FOR_CUT = 60


class AlmserActiveLearner:
    """Graph-boosted committee AL over a multi-source pair pool.

    Parameters
    ----------
    committee_size : int
        Number of bagged trees in the voting committee.
    batch_size : int
        Labels queried per iteration.
    n_initial : int
        Random seed labels.
    disagreement_weight : float
        Mixing weight between committee uncertainty and graph
        disagreement in the informativeness score.
    use_graph_inferred_labels : bool
        Augment the final training data with labels inferred from
        cleaned connected components.
    random_state : int or numpy.random.Generator, optional
    """

    name = "almser"

    def __init__(self, committee_size=7, batch_size=25, n_initial=10,
                 disagreement_weight=0.5, use_graph_inferred_labels=True,
                 random_state=None):
        if committee_size < 2:
            raise ValueError("committee_size must be >= 2")
        self.committee_size = committee_size
        self.batch_size = batch_size
        self.n_initial = n_initial
        self.disagreement_weight = disagreement_weight
        self.use_graph_inferred_labels = use_graph_inferred_labels
        self.random_state = random_state

    def select(self, features, oracle, budget, pair_ids=None, **_ignored):
        """Spend ``budget`` labels; returns ``(indices, labels)``.

        ``pair_ids`` (record id pairs) are required — without them no
        match graph exists and the method degrades to committee
        uncertainty sampling (a warning-free, documented fallback).
        """
        features = np.asarray(features, dtype=float)
        n = features.shape[0]
        budget = min(budget, n)
        if budget < 2:
            raise ValueError("budget must allow at least two labels")
        rng = check_random_state(self.random_state)

        n_seed = min(self.n_initial, budget)
        selected = seed_selection(features, n_seed, rng)
        labels = {int(i): int(label)
                  for i, label in zip(selected, oracle(selected))}
        labelled_mask = np.zeros(n, dtype=bool)
        labelled_mask[selected] = True

        while len(selected) < budget:
            batch = min(self.batch_size, budget - len(selected))
            known = np.asarray(selected, dtype=int)
            y_known = np.asarray([labels[int(i)] for i in known])
            if len(set(y_known.tolist())) < 2:
                chosen = _random_unlabelled(labelled_mask, batch, rng)
            else:
                committee = BaggingClassifier(
                    base_estimator=DecisionTreeClassifier(max_depth=8),
                    n_estimators=self.committee_size,
                    random_state=int(rng.integers(0, 2**31 - 1)),
                ).fit(features[known], y_known)
                vote_share = committee.vote_matrix(features).mean(axis=0)
                informativeness = self._informativeness(
                    vote_share, pair_ids, labels
                )
                informativeness[labelled_mask] = -1.0
                order = np.argsort(-informativeness, kind="mergesort")
                chosen = [int(i) for i in order[:batch]
                          if not labelled_mask[i]]
                if not chosen:
                    chosen = _random_unlabelled(labelled_mask, batch, rng)
            new_labels = oracle(chosen)
            for i, label in zip(chosen, new_labels):
                labels[int(i)] = int(label)
                labelled_mask[int(i)] = True
            selected.extend(int(i) for i in chosen)

        indices = np.asarray(selected, dtype=int)
        chosen_labels = np.asarray([labels[int(i)] for i in indices])
        if self.use_graph_inferred_labels and pair_ids is not None:
            extra_idx, extra_labels = self._graph_inferred_labels(
                pair_ids, labels, labelled_mask
            )
            if len(extra_idx):
                indices = np.concatenate([indices, extra_idx])
                chosen_labels = np.concatenate([chosen_labels, extra_labels])
        return indices, chosen_labels

    # -- internals -----------------------------------------------------------

    def _informativeness(self, vote_share, pair_ids, labels):
        """Committee uncertainty blended with graph disagreement."""
        uncertainty = vote_share * (1.0 - vote_share)
        uncertainty = uncertainty / 0.25  # normalise to [0, 1]
        if pair_ids is None:
            return uncertainty
        graph_label = self._graph_signal(vote_share, pair_ids, labels)
        committee_label = (vote_share >= 0.5).astype(float)
        disagreement = np.where(
            graph_label >= 0, np.abs(graph_label - committee_label), 0.0
        )
        w = self.disagreement_weight
        return (1.0 - w) * uncertainty + w * disagreement

    def _graph_signal(self, vote_share, pair_ids, labels):
        """Per-pair graph-inferred label: 1, 0, or -1 (no evidence)."""
        match_graph = Graph()
        for index, (record_a, record_b) in enumerate(pair_ids):
            known = labels.get(index)
            is_match = known == 1 if known is not None else vote_share[index] >= 0.5
            if is_match:
                match_graph.add_edge(record_a, record_b,
                                     max(vote_share[index], 1e-3))

        suspicious_edges = self._suspicious_edges(match_graph)
        component_of = {}
        for component_id, component in enumerate(
            connected_components(match_graph)
        ):
            for node in component:
                component_of[node] = component_id

        signal = np.full(len(pair_ids), -1.0)
        for index, (record_a, record_b) in enumerate(pair_ids):
            edge = frozenset((record_a, record_b))
            if edge in suspicious_edges:
                signal[index] = 0.0  # likely false positive
                continue
            same_component = (
                record_a in component_of
                and record_b in component_of
                and component_of[record_a] == component_of[record_b]
            )
            if same_component:
                signal[index] = 1.0  # transitive closure implies match
            elif record_a in component_of and record_b in component_of:
                signal[index] = 0.0  # both known, different entities
        return signal

    @staticmethod
    def _suspicious_edges(match_graph):
        """Bridges + cheap min-cut crossings of each sizeable component.

        Each component's subgraph lists its records in the match
        graph's node order, not in set order, so the min cut's start
        node and tie-breaks do not follow the hash seed.
        """
        suspicious = set(bridges(match_graph))
        position = {node: i for i, node in enumerate(match_graph.nodes())}
        for component in connected_components(match_graph):
            if not 3 <= len(component) <= _MAX_COMPONENT_FOR_CUT:
                continue
            subgraph = match_graph.subgraph(
                sorted(component, key=position.__getitem__)
            )
            total = subgraph.total_weight()
            if total <= 0:
                continue
            cut_weight, _ = _safe_cut(subgraph)
            if cut_weight is not None and cut_weight < 0.15 * total:
                suspicious |= min_cut_edges(subgraph)
        return suspicious

    def _graph_inferred_labels(self, pair_ids, labels, labelled_mask):
        """Labels from cleaned connected components of *labelled* matches.

        Components are built from human-labelled matches only (clean
        evidence); any unlabelled pair whose records fall in the same /
        different components receives an inferred label.
        """
        clean_graph = Graph()
        for index, (record_a, record_b) in enumerate(pair_ids):
            if labels.get(index) == 1:
                clean_graph.add_edge(record_a, record_b, 1.0)
        if len(clean_graph) == 0:
            return np.empty(0, dtype=int), np.empty(0, dtype=int)
        component_of = {}
        for component_id, component in enumerate(
            connected_components(clean_graph)
        ):
            for node in component:
                component_of[node] = component_id
        inferred_idx = []
        inferred_labels = []
        for index, (record_a, record_b) in enumerate(pair_ids):
            if labelled_mask[index]:
                continue
            in_a = component_of.get(record_a)
            in_b = component_of.get(record_b)
            if in_a is None or in_b is None:
                continue
            inferred_idx.append(index)
            inferred_labels.append(1 if in_a == in_b else 0)
        return (np.asarray(inferred_idx, dtype=int),
                np.asarray(inferred_labels, dtype=int))


def _safe_cut(subgraph):
    from ..graphcluster import stoer_wagner

    try:
        weight, sides = stoer_wagner(subgraph)
        return weight, sides
    except ValueError:
        return None, None


def _random_unlabelled(labelled_mask, batch, rng):
    candidates = np.nonzero(~labelled_mask)[0]
    if len(candidates) == 0:
        return []
    take = min(batch, len(candidates))
    return [int(i) for i in rng.choice(candidates, size=take, replace=False)]
