"""The ER model repository: construction, search, persistence.

A repository holds one :class:`ClusterEntry` per cluster of similar ER
problems: the trained classifier :math:`M_{C_i}`, the training feature
vectors :math:`P_{C_i}` the AL method selected (the cluster's
*representative*, used to match new problems against the cluster), and
bookkeeping (which problems contributed, how many labels were spent).

Persistence is a plain directory — no pickle, so stores are portable
and auditable (the paper's future-work backend, §7):

* ``manifest.json`` (compact JSON) — the test, the config, the next
  entry id, ``index_threshold`` and each entry's keys, labels spent and
  model class;
* ``vectors.npz`` — each entry's training features and labels, plus
  the search sketch matrix once the repository is indexed;
* ``model_<cluster id>.json`` — the entry's model from its
  ``to_dict()``: ``__class__``, ``params`` and ``fitted``. A random
  forest is one ensemble
  (:meth:`~repro.ml.RandomForestClassifier.to_dict`): its params and
  ``classes_`` once, then under ``trees`` each tree's ``random_state``
  and ``n_nodes`` and the five node arrays concatenated in tree order;
  other estimators list their fitted attributes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ml import ESTIMATOR_REGISTRY
from .config import (
    DEFAULT_INDEX_THRESHOLD,
    MoRERConfig,
    check_index_threshold,
)
from .distribution import make_distribution_test
from .problem import ERProblem
from .signatures import ProblemSignature, SignatureStore
from .sketch_index import SketchIndex

__all__ = ["ClusterEntry", "ModelRepository"]

#: Capacity of the LRU store of probe signatures. Probes are usually
#: searched once each, so it stays small: it only pays off when the
#: same problem is searched repeatedly. Entry signatures are kept
#: separately, one per entry.
PROBE_SIGNATURE_CACHE = 16


@dataclass
class ClusterEntry:
    """One cluster's model + representative training data.

    Attributes
    ----------
    cluster_id : int
    problem_keys : set of tuple
        ER problems assigned to this cluster at the last (re)clustering.
        Once registered in a :class:`ModelRepository`, reassign keys
        through :meth:`ModelRepository.reassign_cluster` rather than
        mutating this set directly — the repository maintains a
        key→entry index over it.
    model : classifier
        Trained :math:`M_{C_i}` (``predict`` / ``predict_proba``).
    training_features : ndarray
        The selected vectors :math:`P_{C_i}` — the cluster representative.
    training_labels : ndarray
    labels_spent : int
        Oracle queries charged to this entry so far.
    trained_keys : set of tuple
        Problems whose vectors have been used for training (subset of
        the global ``T`` set of §4.5).
    """

    cluster_id: int
    problem_keys: set
    model: object
    training_features: np.ndarray
    training_labels: np.ndarray
    labels_spent: int = 0
    trained_keys: set = field(default_factory=set)

    def predict(self, features):
        """Classify feature vectors with the cluster model."""
        return self.model.predict(features)


class ModelRepository:
    """Store, search and persist cluster models.

    Parameters
    ----------
    test : distribution test or str
        Test used for repository *search* (matching a new problem to a
        cluster representative) — the same test used to build the
        problem graph, per §4.5.
    config : MoRERConfig, optional
        Stored alongside for provenance; persisted in the manifest.
    index_threshold : int, optional
        Entry count from which search prefilters entries by sketch
        distance and reranks only the ``max(8 * top_k, 48)`` nearest
        exactly (:mod:`repro.core.sketch_index`). Below it every entry
        is scored — the byte-identical exact scan that small
        repositories, including every Table 4/5 reproduction, keep.
        Defaults to the config's ``index_threshold`` when a config is
        given.

    Notes
    -----
    ``problem_keys`` are normally disjoint across entries (one cluster
    per problem — the §4.3 partition), but ``sel_cov`` can transiently
    overlap them between a new-entry registration and the next
    reclustering; the key→entry index therefore tracks every containing
    entry and resolves ties to the oldest, matching a linear scan in
    insertion order.
    """

    def __init__(self, test="ks", config=None, index_threshold=None):
        if isinstance(test, str):
            test = make_distribution_test(test)
        self.test = test
        self.config = config
        self.entries = {}
        self._next_id = 0
        if index_threshold is None:
            index_threshold = (
                config.index_threshold if config
                else DEFAULT_INDEX_THRESHOLD
            )
        check_index_threshold(index_threshold)
        self.index_threshold = int(index_threshold)
        self._key_index = {}
        self._entry_signatures = {}
        self._probe_signatures = SignatureStore(PROBE_SIGNATURE_CACHE)
        self._sketch_index = SketchIndex()
        self._index_pending = set()

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.values())

    def add_entry(self, problem_keys, model, training_features,
                  training_labels, labels_spent=0, trained_keys=None):
        """Register a new cluster entry; returns its id.

        Raises ``ValueError`` when the training features do not lie in
        ``[0, 1]``, the domain of the search kernels.
        """
        training_features = np.asarray(training_features, dtype=float)
        signature = ProblemSignature(training_features)
        entry = ClusterEntry(
            cluster_id=self._next_id,
            problem_keys=set(problem_keys),
            model=model,
            training_features=training_features,
            training_labels=np.asarray(training_labels, dtype=int),
            labels_spent=int(labels_spent),
            trained_keys=set(trained_keys or ()),
        )
        self.entries[entry.cluster_id] = entry
        self._entry_signatures[entry.cluster_id] = signature
        self._next_id += 1
        self._register_keys(entry)
        self._index_pending.add(entry.cluster_id)
        return entry.cluster_id

    def entry_for_problem(self, key):
        """Entry whose cluster contains problem ``key`` (or ``None``).

        With (transiently) overlapping entries the oldest containing
        entry wins — the order a linear scan over ``entries`` yields.
        """
        cluster_ids = self._key_index.get(key)
        if not cluster_ids:
            return None
        return self.entries.get(min(cluster_ids))

    def containing_cluster_ids(self, key):
        """Ids of every entry whose cluster contains ``key``."""
        return tuple(self._key_index.get(key, ()))

    def reassign_cluster(self, entry, cluster):
        """Assign ``cluster`` to ``entry``, stealing keys from *all*
        other entries.

        Keeps the key→entry index consistent — the ``sel_cov``
        reclustering path (§4.5) calls this after every Leiden run.
        """
        cluster = set(cluster)
        for key in cluster:
            for cluster_id in tuple(self._key_index.get(key, ())):
                if cluster_id != entry.cluster_id:
                    self.entries[cluster_id].problem_keys.discard(key)
            self._key_index[key] = {entry.cluster_id}
        for key in entry.problem_keys - cluster:
            self._unindex_key(key, entry.cluster_id)
        entry.problem_keys = cluster

    def invalidate_entry_cache(self, cluster_id):
        """Drop the cached signature *and* the sketch row after an
        entry's representative changed (retraining replaces
        ``training_features``); both are rebuilt lazily at the next
        search."""
        self._entry_signatures.pop(cluster_id, None)
        self._sketch_index.discard(cluster_id)
        if cluster_id in self.entries:
            self._index_pending.add(cluster_id)

    def _register_keys(self, entry):
        for key in entry.problem_keys:
            self._key_index.setdefault(key, set()).add(entry.cluster_id)

    def _unindex_key(self, key, cluster_id):
        cluster_ids = self._key_index.get(key)
        if cluster_ids is not None:
            cluster_ids.discard(cluster_id)
            if not cluster_ids:
                del self._key_index[key]

    def _entry_signature(self, entry):
        signature = self._entry_signatures.get(entry.cluster_id)
        if signature is None or signature.features is not entry.training_features:
            signature = ProblemSignature(entry.training_features)
            self._entry_signatures[entry.cluster_id] = signature
            # The identity safety net caught a replaced representative:
            # the sketch row (if any) is stale too.
            self._sketch_index.discard(entry.cluster_id)
            self._index_pending.add(entry.cluster_id)
        return signature

    def _indexed(self):
        """Whether searches take the sketch-prefiltered path."""
        return len(self.entries) >= self.index_threshold

    def _sync_sketch_index(self):
        """Fold pending entries (inserted or invalidated since the last
        indexed search) into the sketch matrix."""
        if not self._index_pending:
            return
        for cluster_id in list(self._index_pending):
            self._sketch_index.add(
                cluster_id, self._entry_signature(self.entries[cluster_id])
            )
            self._index_pending.discard(cluster_id)

    def prepare_search(self):
        """Flush every lazy search cache so :meth:`search` is read-only.

        Precomputes each entry's signature and, when searches resolve
        to the indexed path, syncs the sketch matrix. Called by the
        serving layer (:class:`repro.service.MoRERService`) under its
        write lock after any mutation (fit, retraining, load), so that
        concurrent ``sel_base`` searches on the shared read lock find
        nothing pending and never race on cache construction.
        """
        for entry in self.entries.values():
            self._entry_signature(entry)
        if self._indexed():
            self._sync_sketch_index()

    def _score_indexed(self, probe, top_k):
        """Sketch prefilter + exact rerank over the
        ``max(8 * top_k, 48)`` nearest candidates."""
        self._sync_sketch_index()
        candidate_ids = self._sketch_index.query(
            probe, max(8 * (top_k or 1), 48)
        )
        entries = [self.entries[cid] for cid in candidate_ids]
        similarities = self.test.signature_similarity_many(
            probe, [self._entry_signature(entry) for entry in entries],
        )
        return [
            (float(similarity), entry)
            for similarity, entry in zip(similarities, entries)
        ]

    def search(self, problem, top_k=None):
        """Repository *search*: best entry (or entries) for a problem.

        Compares the problem's feature vectors against every entry's
        representative :math:`P_{C_i}` with the repository's
        distribution test — the :math:`sel_{base}` primitive (§4.5). The
        probe is summarised once and each entry's representative
        signature is cached (invalidated on retraining). From
        ``index_threshold`` entries on, candidates are prefiltered
        through the sketch index (see the class docstring and
        :mod:`repro.core.sketch_index`) before the exact rerank.

        Parameters
        ----------
        problem : ERProblem or ndarray
            The probe problem, or its raw feature matrix. A matrix
            outside ``[0, 1]`` — the feature domain :class:`ERProblem`
            enforces — raises ``ValueError``.
        top_k : int, optional
            When given, return the ``top_k`` best entries as a list of
            ``(entry, similarity)`` pairs sorted by descending
            similarity; the default returns the single best pair
            ``(entry, similarity)``.
        """
        if not self.entries:
            raise LookupError("the repository is empty; fit MoRER first")
        if top_k is not None:
            if isinstance(top_k, bool) or not isinstance(
                top_k, (int, np.integer)
            ) or top_k < 1:
                raise ValueError("top_k must be a positive integer")
            top_k = int(top_k)
        if isinstance(problem, ERProblem):
            probe = self._probe_signatures.signature(
                problem.key, problem.features
            )
        else:
            probe = ProblemSignature(problem)
        if self._indexed():
            scored = self._score_indexed(probe, top_k)
        else:
            scored = [
                (
                    float(self.test.signature_similarity(
                        probe, self._entry_signature(entry)
                    )),
                    entry,
                )
                for entry in self.entries.values()
            ]
        if top_k is None:
            best_similarity, best_entry = max(scored, key=lambda item: item[0])
            return best_entry, best_similarity
        ranked = sorted(scored, key=lambda item: item[0], reverse=True)
        return [(entry, similarity) for similarity, entry in ranked[:top_k]]

    def total_labels_spent(self):
        """Sum of oracle queries across entries."""
        return sum(entry.labels_spent for entry in self.entries.values())

    # -- persistence -----------------------------------------------------------

    def save(self, path, atomic=True):
        """Persist the repository to directory ``path``.

        ``atomic`` (the default) stages the write in a temp sibling and
        renames it into place with the previous generation kept as
        ``<path>.prev`` — a crash mid-save never corrupts an existing
        store. :meth:`MoRER.save` passes ``atomic=False`` because its
        own snapshot swap already covers the nested repository dir.
        """
        if atomic:
            from ..durability.atomic import atomic_directory

            with atomic_directory(path) as tmp:
                self.save(tmp, atomic=False)
            return
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "test": self.test.name,
            "config": self.config.to_dict() if self.config else None,
            "next_id": self._next_id,
            # The switch survives the round trip even without a config.
            "index_threshold": self.index_threshold,
            "entries": [],
        }
        arrays = {}
        for entry in self.entries.values():
            manifest["entries"].append(
                {
                    "cluster_id": entry.cluster_id,
                    "problem_keys": sorted(
                        list(key) for key in entry.problem_keys
                    ),
                    "trained_keys": sorted(
                        list(key) for key in entry.trained_keys
                    ),
                    "labels_spent": entry.labels_spent,
                    "model_class": type(entry.model).__name__,
                }
            )
            arrays[f"features_{entry.cluster_id}"] = entry.training_features
            arrays[f"labels_{entry.cluster_id}"] = entry.training_labels
            model_path = path / f"model_{entry.cluster_id}.json"
            model_path.write_text(json.dumps(entry.model.to_dict()))
        if self.entries and self._indexed():
            # Persist the sketch matrix so a loaded repository's first
            # indexed search skips the lazy per-entry rebuild. Stores
            # below the threshold never query the index, so their saves
            # skip the per-entry sketch cost and the load keeps
            # rebuilding lazily if the store later outgrows the
            # threshold.
            self._sync_sketch_index()
            ids, rows = self._sketch_index.export_rows()
            arrays["sketch_ids"] = np.asarray(ids, dtype=np.int64)
            arrays["sketch_rows"] = rows
        (path / "manifest.json").write_text(json.dumps(manifest))
        np.savez_compressed(path / "vectors.npz", **arrays)

    @classmethod
    def load(cls, path):
        """Load a repository saved with :meth:`save`."""
        path = Path(path)
        manifest = json.loads((path / "manifest.json").read_text())
        config = (
            MoRERConfig.from_dict(manifest["config"])
            if manifest.get("config")
            else None
        )
        test_name = manifest["test"]
        test_params = config.test_params if config else {}
        repository = cls(
            make_distribution_test(test_name, **test_params), config,
            index_threshold=manifest["index_threshold"],
        )
        arrays = np.load(path / "vectors.npz")
        for meta in manifest["entries"]:
            cluster_id = meta["cluster_id"]
            model_state = json.loads(
                (path / f"model_{cluster_id}.json").read_text()
            )
            model_cls = ESTIMATOR_REGISTRY[meta["model_class"]]
            model = model_cls.from_dict(model_state)
            entry = ClusterEntry(
                cluster_id=cluster_id,
                problem_keys={tuple(key) for key in meta["problem_keys"]},
                model=model,
                training_features=arrays[f"features_{cluster_id}"],
                training_labels=arrays[f"labels_{cluster_id}"],
                labels_spent=meta["labels_spent"],
                trained_keys={tuple(key) for key in meta["trained_keys"]},
            )
            repository.entries[cluster_id] = entry
            repository._register_keys(entry)
            # Loaded entries bypass add_entry, so queue their sketch
            # rows explicitly — the first indexed search builds them
            # (or restores them from the persisted matrix below).
            repository._index_pending.add(cluster_id)
        repository._next_id = manifest["next_id"]
        if "sketch_ids" in arrays and set(
            int(i) for i in arrays["sketch_ids"]
        ) == set(repository.entries):
            ids = [int(i) for i in arrays["sketch_ids"]]
            repository._sketch_index.bulk_load(ids, arrays["sketch_rows"])
            for cluster_id in ids:
                entry = repository.entries[cluster_id]
                # Seed the signature cache with the loaded feature
                # matrices so the identity safety net in
                # _entry_signature recognises the persisted rows as
                # current (statistics inside stay lazy).
                repository._entry_signatures[cluster_id] = (
                    ProblemSignature(entry.training_features)
                )
                repository._index_pending.discard(cluster_id)
        return repository
