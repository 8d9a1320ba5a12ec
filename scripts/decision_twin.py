#!/usr/bin/env python3
"""Decision twin: two revisions of MoRER decide and store identically.

    python scripts/decision_twin.py --base HEAD --seeds 9901 9902 9903

Exports two git revisions the way ``scripts/bench_pairs.py`` does (with
its ``_export``; the default head is this working tree's tracked files,
staged or not, so a new file must be ``git add``-ed to take part) and,
in each, runs three ``sel_cov`` scenarios per seed, each in its own
subprocess under ``PYTHONHASHSEED`` 0 and again under 1. perfbench's
``Generator(seed, 6, 2)`` draws the fit set, ``MoRERConfig(selection=
"cov", random_state=seed)`` fits it, and ``solve_batch`` ticks of 1-16
probes drawn from ``stream("S", 16, 1)`` follow:

* ``fit160`` — a 160-problem fit plus 25 ticks (above the default
  ``index_threshold`` of 128: prefiltered integration, row replay);
* ``fit48`` — a 48-problem fit plus 25 ticks, which crosses
  ``index_threshold`` mid-run;
* ``fit120`` — a 120-problem fit plus 12 ticks.

Per scenario it prints one digest per part: ``decisions`` (every
probe's predictions, cluster id, retrain and new-model flags, labels
spent and coverage, and the clusters after every tick), ``state`` (the
counters and the RNG state), and, of a save after the last tick,
``graph.npz``, each repository file on its own (``manifest.json``,
``vectors.npz``, every ``model_*.json``), ``morer.json``'s
``partition`` block and all of ``morer.json`` but its ``format`` (the
file holds no timings, so a decision-identical change writes the same
bytes). The store is then loaded and the live and the loaded instance
solve three more ticks; ``twin`` digests the loaded one's decisions,
which must equal the live one's.

Base and head are compared per hash seed, and the head's two hash seeds
with each other: a part that follows the hash seed (iteration order of
a set of string keys) reads DIFFERENT there. Exit code 0 when, under
each hash seed, every digest of the head equals the base's and every
loaded twin decided like its live instance, and the head wrote every
part identically under both hash seeds. A store-format change shows as
exactly the files it touches (a config change: ``morer.json`` and
``repository/manifest.json``) with every other part the same;
``--workdir DIR`` keeps both sides' stores (``SIDE-SCENARIO-SEED-hH``)
for a closer diff.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import _export

SCENARIOS = {"fit160": (160, 25), "fit48": (48, 25), "fit120": (120, 12)}
HASH_SEEDS = ("0", "1")

_CHILD = r"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from perfbench.gen import Generator
from repro.core import MoRER, MoRERConfig

seed, n_fit, n_ticks, store = (
    int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
)


def digest(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def tick(morer, batch):
    results = morer.solve_batch(batch, strategy="cov")
    return {
        "results": [
            [r.predictions.astype(int).tolist(), int(r.cluster_id),
             bool(r.retrained), bool(r.new_model), int(r.labels_spent),
             float(r.coverage)]
            for r in results
        ],
        "clusters": sorted(
            sorted(list(key) for key in cluster)
            for cluster in morer.clusters_
        ),
    }


generator = Generator(seed, 6, 2)
fit = generator.known("F", n_fit)
stream = generator.stream("S", 16, 1)
sizes = np.random.default_rng([seed, 1]).integers(1, 17, n_ticks + 3)
batches = [[next(stream)[0] for _ in range(size)] for size in sizes]

morer = MoRER(MoRERConfig(selection="cov", random_state=seed)).fit(fit)
decisions = [tick(morer, batch) for batch in batches[:n_ticks]]
state = {
    "counters": morer.counters,
    "rng": morer._rng.bit_generator.state,
}
morer.save(store)
repository = {
    str(path.relative_to(store)): hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted((store / "repository").rglob("*")) if path.is_file()
}
saved = json.loads((store / "morer.json").read_text())
del saved["format"]
twin = MoRER.load(store)
live = [tick(morer, batch) for batch in batches[n_ticks:]]
loaded = [tick(twin, batch) for batch in batches[n_ticks:]]
print(json.dumps({
    "decisions": digest(decisions),
    "state": digest(state),
    "graph.npz": hashlib.sha256((store / "graph.npz").read_bytes()).hexdigest(),
    **repository,
    "partition": digest(saved["partition"]),
    "morer.json": digest(saved),
    "twin": digest(loaded),
    "twin_matches_live": digest(loaded) == digest(live),
}))
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision (default HEAD)")
    parser.add_argument("--head", default=None,
                        help="git revision (default: this working tree)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[9901],
                        help="perfbench generator seeds (default 9901)")
    parser.add_argument("--workdir", default=None,
                        help="where the sides are exported (default: a "
                             "temporary directory, removed afterwards)")
    return parser.parse_args(argv)


def _scenario(checkout, seed, name, store, hash_seed):
    """One scenario's digests in ``checkout``, from a fresh process
    under ``PYTHONHASHSEED=hash_seed``."""
    n_fit, n_ticks = SCENARIOS[name]
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"), checkout]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(seed), str(n_fit), str(n_ticks),
         store],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"{name} (seed {seed}, hash seed {hash_seed}) failed in "
            f"{checkout}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _compare(label, left, right, twin_rule):
    """Print one line per part of two digest dicts; whether all agree.
    ``twin_rule``: ``twin_matches_live`` must also be true on both."""
    same = True
    for part in dict.fromkeys([*left, *right]):
        ok = left.get(part) == right.get(part)
        if twin_rule and part == "twin_matches_live":
            ok = left.get(part) is True and right.get(part) is True
        same = same and ok
        print(f"{label} {part:>26}: {'same' if ok else 'DIFFERENT'}  "
              f"{right.get(part)}")
    return same


def main(argv=None):
    args = _parse(argv)
    workdir = args.workdir or tempfile.mkdtemp(prefix="decision-twin-")
    owns_workdir = args.workdir is None
    same = True
    try:
        checkouts = {"base": _export(args.base, workdir, "base"),
                     "head": _export(args.head, workdir, "head")}
        for seed in args.seeds:
            for name in SCENARIOS:
                digests = {
                    (side, hash_seed): _scenario(
                        checkout, seed, name,
                        os.path.join(
                            workdir, f"{side}-{name}-{seed}-h{hash_seed}"
                        ),
                        hash_seed,
                    )
                    for side, checkout in checkouts.items()
                    for hash_seed in HASH_SEEDS
                }
                for hash_seed in HASH_SEEDS:
                    same = _compare(
                        f"seed {seed} {name:>6} hash {hash_seed} base/head",
                        digests["base", hash_seed],
                        digests["head", hash_seed], twin_rule=True,
                    ) and same
                same = _compare(
                    f"seed {seed} {name:>6} head hash "
                    f"{'/'.join(HASH_SEEDS)}",
                    *(digests["head", hash_seed] for hash_seed in HASH_SEEDS),
                    twin_rule=False,
                ) and same
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    print("decision twin:", "identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
