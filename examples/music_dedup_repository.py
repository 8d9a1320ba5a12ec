"""Music catalogue linkage with a persisted model repository.

Demonstrates repository *construction and persistence*: a MusicBrainz-
like corpus is linked once, the repository is saved to disk (JSON +
npz, no pickle), reloaded in a "second session", and used to serve new
problems — the backend workflow sketched in the paper's §7.

Run with::

    python examples/music_dedup_repository.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ModelRepository, MoRER
from repro.datasets import load_benchmark
from repro.ml import precision_recall_f1


def main():
    dataset, schema, split = load_benchmark("music", scale=0.4,
                                            random_state=3)
    print(f"music corpus: {dataset.statistics()['n_records']} records "
          f"across {len(dataset.sources)} duplicate-free sources")

    # Session 1: build and persist the repository.
    morer = MoRER(b_total=200, b_min=20, al_method="bootstrap",
                  distribution_test="psi", random_state=3)
    morer.fit(split.initial)
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "music-repository"
        morer.repository.save(store)
        print(f"saved {len(morer.repository)} cluster models to {store}")

        # Session 2: reload and serve new ER problems without refitting.
        repository = ModelRepository.load(store)
        truths, predictions = [], []
        for problem in split.unsolved:
            entry, similarity = repository.search(problem.without_labels())
            truths.append(problem.labels)
            predictions.append(entry.predict(problem.features))
        precision, recall, f1 = precision_recall_f1(
            np.concatenate(truths), np.concatenate(predictions)
        )
        print(f"reloaded repository served {len(split.unsolved)} problems: "
              f"P={precision:.3f} R={recall:.3f} F1={f1:.3f}")
        print(f"store contents: {sorted(p.name for p in store.iterdir())}")

if __name__ == "__main__":
    main()
