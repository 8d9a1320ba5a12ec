"""Seeded synthetic labelled ER problems.

A *regime* fixes the match and non-match similarity distributions over
the shared feature schema; problems drawn from one regime look alike to
MoRER's distribution tests, so the problem graph has real cluster
structure. Problem sizes come from a log-spaced grid spanning an order
of magnitude. The program under test only ever sees the problems; the
ground-truth labels stay with the benchmark for scoring (``sel_cov``
probes carry them because the labels are the labelling oracle).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import ERProblem

N_FEATURES = 6
MIN_PAIRS = 16
MAX_PAIRS = 160
#: The regimes are fixed; the run seed draws the problems from them, so
#: every seed poses the same kind of task (same cluster structure, same
#: size grid) and run-to-run spread measures the system, not how hard a
#: seed's regimes happened to be.
REGIME_SEED = 20260
#: Minimum L1 distance between two regimes' mean vectors.
REGIME_DISTANCE = 1.2


class Regime:
    """Match / non-match similarity distributions of one problem family."""

    def __init__(self, rng):
        self.match_mean = rng.uniform(0.55, 0.97, N_FEATURES)
        self.nonmatch_mean = rng.uniform(0.03, 0.45, N_FEATURES)
        self.spread = float(rng.uniform(0.04, 0.08))
        self.match_share = float(rng.uniform(0.2, 0.45))

    @property
    def means(self):
        return np.r_[self.match_mean, self.nonmatch_mean]


def regimes(count):
    """The first ``count`` fixed regimes, pairwise at least
    :data:`REGIME_DISTANCE` apart."""
    rng = np.random.default_rng(REGIME_SEED)
    chosen = []
    while len(chosen) < count:
        regime = Regime(rng)
        if all(np.abs(regime.means - other.means).sum() >= REGIME_DISTANCE
               for other in chosen):
            chosen.append(regime)
    return chosen


def size_grid(n):
    """``n`` log-spaced problem sizes from MIN_PAIRS to MAX_PAIRS, in a
    fixed order that does not follow the regimes they get paired with."""
    sizes = np.round(np.exp(np.linspace(
        np.log(MIN_PAIRS), np.log(MAX_PAIRS), n))).astype(int)
    return np.random.default_rng([REGIME_SEED, n]).permutation(sizes)


class Generator:
    """Seeded problems over ``n_known + n_novel`` regimes.

    ``n_known`` regimes feed the fit set; the ``n_novel`` extra regimes
    are held back so a stream can draw problems MoRER never saw at fit
    time.
    """

    def __init__(self, seed, n_known, n_novel=0):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.regimes = regimes(n_known + n_novel)
        self.n_known = n_known
        self._count = 0

    def fork(self, salt):
        """Same regimes, independent random stream: what the fork draws
        does not depend on how much the parent drew, or the reverse."""
        child = Generator.__new__(Generator)
        child.__dict__.update(self.__dict__)
        child.rng = np.random.default_rng([self.seed, salt])
        child._count = 0
        return child

    def problem(self, prefix, regime_index, n_pairs):
        """A fresh labelled problem with a unique source pair."""
        regime = self.regimes[regime_index]
        rng = self.rng
        n_match = min(n_pairs - 1, max(1, int(round(
            n_pairs * regime.match_share))))
        features = np.vstack([
            rng.normal(regime.match_mean, regime.spread,
                       (n_match, N_FEATURES)),
            rng.normal(regime.nonmatch_mean, regime.spread,
                       (n_pairs - n_match, N_FEATURES)),
        ])
        labels = np.r_[np.ones(n_match, int), np.zeros(n_pairs - n_match, int)]
        order = rng.permutation(n_pairs)
        self._count += 1
        name = f"{prefix}{self._count}"
        return ERProblem(
            f"{name}a", f"{name}b", np.clip(features[order], 0.0, 1.0),
            labels[order],
        )

    def known(self, prefix, n):
        """``n`` problems cycling over the fit-time regimes with the
        sizes of :func:`size_grid`: the (regime, size) layout is fixed,
        the seed draws the features."""
        return [self.problem(prefix, i % self.n_known, int(size))
                for i, size in enumerate(size_grid(n))]

    def stream(self, prefix, block, n_novel):
        """Endless ``(problem, novel)`` stream in blocks of ``block``.

        Every block holds the same (regime, size) pairs: ``n_novel``
        from the held-back regimes, the rest cycling over the known
        ones, sizes from :func:`size_grid`. The seed orders each block
        and draws the features, so the same seed gives the same stream
        however fast it is consumed."""
        n_novel_regimes = len(self.regimes) - self.n_known
        kinds = [i % self.n_known for i in range(block - n_novel)]
        kinds += [self.n_known + i % n_novel_regimes for i in range(n_novel)]
        layout = list(zip(kinds, size_grid(block)))
        while True:
            for position in self.rng.permutation(block):
                regime, size = layout[position]
                yield (self.problem(prefix, regime, int(size)),
                       regime >= self.n_known)


def size_spread(problems):
    """Recorded size property of a problem set: ``{min, max, p90/p10}``."""
    sizes = np.array([p.n_pairs for p in problems], dtype=float)
    p10, p90 = np.percentile(sizes, [10, 90])
    return {
        "min_pairs": int(sizes.min()),
        "max_pairs": int(sizes.max()),
        "p90_over_p10": float(p90 / p10),
    }
