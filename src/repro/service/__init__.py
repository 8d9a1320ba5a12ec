"""The MoRER serving layer: typed API, micro-batched solves, HTTP.

``repro.service`` turns a single-threaded :class:`~repro.core.MoRER`
into something that serves concurrent traffic:

- :mod:`~repro.service.types` — ``SolveRequest`` / ``SolveResponse`` /
  ``FitRequest`` / ``RepositoryStats``, each JSON-(de)serialisable;
- :mod:`~repro.service.errors` — the explicit failure vocabulary
  (``NotFitted``, ``InvalidRequest``, ``RequestTimeout``,
  ``PayloadTooLarge``, ``Overloaded``, ``RateLimited``, ``Unavailable``
  when the durability WAL degrades, client-side ``TransportError``);
- :mod:`~repro.service.service` — :class:`MoRERService`, a read-write-
  locked façade whose background scheduler coalesces concurrent
  ``sel_cov`` requests into one :meth:`MoRER.solve_batch` per tick;
- :mod:`~repro.service.observability` — dependency-free metrics
  (Prometheus text format on ``GET /metrics``) and JSON-lines access
  logging;
- :mod:`~repro.service.limiter` — per-client token-bucket admission
  control in front of the scheduler queue;
- :mod:`~repro.service.http` — an HTTP/1.1 JSON gateway on
  ``socketserver`` (``repro serve`` from the CLI);
- :mod:`~repro.service.client` — :class:`ServiceClient`, the same
  typed API over the wire. It loads on first access (PEP 562): its
  ``urllib.request`` import pulls in ``http.client``, ``email`` and
  ``ssl``, which a server never needs.
"""

from .._lazy import lazy_exports
from .errors import (
    InvalidRequest,
    NotFitted,
    Overloaded,
    PayloadTooLarge,
    RateLimited,
    RequestTimeout,
    ServiceError,
    TransportError,
    Unavailable,
)
from .http import ServiceHTTPServer
from .limiter import RateLimiter, TokenBucket
from .observability import (
    AccessLog,
    MetricsRegistry,
    ServiceMetrics,
)
from .rwlock import ReadWriteLock
from .service import MoRERService
from .types import (
    FitRequest,
    RepositoryStats,
    SolveRequest,
    SolveResponse,
    problem_from_dict,
)

__getattr__ = lazy_exports(globals(), {".client": ["ServiceClient"]})

__all__ = [
    "MoRERService",
    "ServiceClient",
    "ServiceHTTPServer",
    "ReadWriteLock",
    "SolveRequest",
    "SolveResponse",
    "FitRequest",
    "RepositoryStats",
    "problem_from_dict",
    "ServiceError",
    "NotFitted",
    "InvalidRequest",
    "RequestTimeout",
    "PayloadTooLarge",
    "Overloaded",
    "RateLimited",
    "Unavailable",
    "TransportError",
    "MetricsRegistry",
    "ServiceMetrics",
    "AccessLog",
    "RateLimiter",
    "TokenBucket",
]
