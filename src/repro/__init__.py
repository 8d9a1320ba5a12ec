"""MoRER — an efficient model repository for entity resolution.

Reproduction of Christen & Christen, *Efficient Model Repository for
Entity Resolution: Construction, Search, and Integration* (EDBT 2026).

Public API highlights
---------------------
- :class:`repro.MoRER` / :class:`repro.MoRERConfig` — fit a repository
  on solved ER problems, solve new ones via ``sel_base`` / ``sel_cov``.
- :class:`repro.ERProblem` — similarity feature vectors of a source pair.
- :mod:`repro.service` — the serving layer: typed requests,
  :class:`~repro.service.MoRERService` (read-write-locked façade with
  a micro-batching ``sel_cov`` scheduler), an HTTP gateway
  (``python -m repro serve``) and :class:`~repro.service.ServiceClient`.
- :func:`repro.datasets.load_benchmark` — the three evaluation corpora.
- :mod:`repro.baselines` — Almser, Bootstrap AL, TransER, Ditto,
  Unicorn, Sudowoodo, AnyMatch, ZeroER.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

_CORE = [
    "MoRER",
    "MoRERConfig",
    "ERProblem",
    "ERProblemGraph",
    "ModelRepository",
    "SolveResult",
    "CountingOracle",
    "NotFittedError",
]

__all__ = [*_CORE, "__version__"]

# repro.core (and numpy with it) loads on the first access of one of
# its names, so the stdlib-only `python -m repro lint` never imports it.
__getattr__ = lazy_exports(globals(), {".core": _CORE})
