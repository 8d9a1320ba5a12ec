"""`ServiceClient`: the typed serving API over HTTP.

A stdlib (``urllib``) client for the gateway in
:mod:`repro.service.http`, returning the same dataclasses the
in-process :class:`~repro.service.MoRERService` does and re-raising the
same typed errors (:class:`~repro.service.NotFitted`,
:class:`~repro.service.InvalidRequest`,
:class:`~repro.service.Overloaded`,
:class:`~repro.service.RateLimited`,
:class:`~repro.service.Unavailable`) the server reported — remote and
in-process callers are written identically.

Retry policy
------------
The client retries **idempotent** calls only — ``healthz``, ``stats``,
``metrics`` and solves whose strategy is explicitly ``"base"`` — and
only on failures where retrying is safe and useful: connection-level
errors (:class:`~repro.service.TransportError`; the request may never
have arrived) and 429 ``Overloaded`` / ``RateLimited`` / 503
``Unavailable`` back-pressure. Sleeps follow exponential backoff with
jitter; when a 429 carries a ``Retry-After`` the sleep honours it (the
server knows exactly when the token bucket refills — sleeping less
just burns an attempt).

``cov`` solves and ``fit`` are **never** auto-retried: they mutate
server state. A ``cov`` request that timed out client-side may still
have executed server-side — blindly retrying it would spend the label
budget twice, advance the repository's RNG stream, and potentially
register a duplicate graph node. Callers that know their workload can
opt in per call with ``idempotent=True`` on :meth:`_request`, or
simply re-submit after inspecting :meth:`stats`. (A *rate-limited*
mutation is the exception that proves the rule — the gateway rejected
it before anything executed — but the client still re-raises rather
than auto-retrying, because it cannot tell a 429 taken before
admission from one that raced a timeout.)
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

from ..core.problem import ERProblem
from .errors import (
    Overloaded,
    RateLimited,
    ServiceError,
    TransportError,
    Unavailable,
    error_for_code,
)
from .types import (
    FitRequest,
    RepositoryStats,
    SolveRequest,
    SolveResponse,
)

__all__ = ["ServiceClient"]

#: Typed errors worth retrying when (and only when) the call is
#: idempotent: the request never arrived, or the server asked for
#: backoff.
_RETRYABLE = (TransportError, Overloaded, RateLimited, Unavailable)


class ServiceClient:
    """Typed client for a ``repro serve`` gateway.

    Parameters
    ----------
    base_url : str
        e.g. ``"http://127.0.0.1:8640"`` (a :attr:`ServiceHTTPServer.url`).
    timeout : float
        Per-request socket timeout in seconds. ``sel_cov`` solves block
        server-side until their micro-batch tick completes, so keep
        this comfortably above the service's ``max_wait_ms``.
    retries : int
        Extra attempts for retryable failures of idempotent calls
        (see the module docstring). ``0`` disables retrying.
    backoff : float
        Base sleep before the first retry; doubles per attempt.
    backoff_max : float
        Cap on any single backoff sleep, pre-jitter. A server-supplied
        ``Retry-After`` overrides the cap — it is a promise, not a
        guess.
    client_id : str, optional
        Sent as the ``X-Client-Id`` header on every request, naming
        this caller to the gateway's per-client admission control and
        access log. Defaults to letting the gateway fall back to the
        remote address.
    rng : random.Random, optional
        Source of the backoff jitter. Defaults to a fresh unseeded
        ``random.Random()`` — pass a seeded instance to make retry
        timing reproducible in tests and replay harnesses.
    """

    def __init__(self, base_url, timeout=60.0, retries=2, backoff=0.1,
                 backoff_max=2.0, client_id=None, rng=None):
        self.base_url = str(base_url).rstrip("/")
        self.timeout = float(timeout)
        self.retries = max(int(retries), 0)
        self.backoff = max(float(backoff), 0.0)
        self.backoff_max = max(float(backoff_max), 0.0)
        self.client_id = None if client_id is None else str(client_id)
        self._rng = rng if rng is not None else random.Random()

    # -- transport ---------------------------------------------------------

    def _request(self, method, path, payload=None, idempotent=False):
        """Send one JSON request; retry per policy when ``idempotent``."""
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except _RETRYABLE as exc:
                if not idempotent or attempt >= self.retries:
                    raise
                # Full-jitter-ish backoff: half deterministic so waits
                # still grow, half random so synchronised clients
                # don't re-stampede an Overloaded queue in lockstep.
                delay = min(self.backoff_max, self.backoff * (2 ** attempt))
                delay *= 0.5 + 0.5 * self._rng.random()
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    # The server said when the bucket refills; retrying
                    # sooner is a guaranteed second 429.
                    delay = max(delay, float(retry_after))
                time.sleep(delay)
                attempt += 1

    def _request_once(self, method, path, payload=None):
        data = None
        headers = {"Accept": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                body = response.read().decode("utf-8")
            # /metrics answers in the Prometheus text format, not JSON.
            return body if path == "/metrics" else json.loads(body)
        except urllib.error.HTTPError as exc:
            detail = exc.read()
            retry_after = _parse_retry_after(exc.headers)
            try:
                error = json.loads(detail.decode("utf-8"))["error"]
                raise error_for_code(
                    error.get("code"), error.get("message", ""),
                    retry_after=error.get("retry_after", retry_after),
                ) from None
            except (ValueError, KeyError, AttributeError):
                raise ServiceError(
                    f"HTTP {exc.code} from {path}: {detail[:200]!r}"
                ) from None
        except urllib.error.URLError as exc:
            raise TransportError(
                f"cannot reach {self.base_url}{path}: {exc.reason}"
            ) from None

    # -- API ---------------------------------------------------------------

    def healthz(self):
        """The gateway's full health dict (``status``, ``live``,
        ``ready``, ``fitted``, ``queue_depth``, optional ``wal``)."""
        return self._request("GET", "/healthz", idempotent=True)

    def wait_ready(self, timeout=10.0, interval=0.1):
        """Poll ``/healthz`` until the gateway answers (startup gate).

        Returns the first health payload; raises
        :class:`~repro.service.ServiceError` after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    def stats(self):
        """Server-side :class:`~repro.service.RepositoryStats`."""
        return RepositoryStats.from_dict(
            self._request("GET", "/stats", idempotent=True)
        )

    def metrics(self):
        """Scrape ``GET /metrics``: the raw Prometheus text exposition
        (see ``docs/OPERATIONS.md`` for the series reference)."""
        return self._request("GET", "/metrics", idempotent=True)

    def solve(self, request, strategy=None):
        """Solve one problem; returns a
        :class:`~repro.service.SolveResponse`.

        ``request`` may be a :class:`~repro.service.SolveRequest` or a
        bare :class:`~repro.core.ERProblem` (with an optional
        ``strategy`` override). Only explicit ``"base"`` solves are
        auto-retried — a strategy of ``None`` defers to the server's
        configured default, which may be the mutating ``cov``.
        """
        request = self._coerce(request, strategy)
        return SolveResponse.from_dict(
            self._request(
                "POST", "/solve", request.to_dict(),
                idempotent=request.strategy == "base",
            )
        )

    def solve_batch(self, requests, strategy=None, return_errors=False):
        """Solve several problems in one round trip (the gateway
        enqueues all of them before blocking, so they coalesce into
        the scheduler's micro-batches).

        The gateway answers with per-item envelopes; by default the
        first failed item's typed error is raised (matching the
        in-process :meth:`MoRERService.solve_batch` contract). With
        ``return_errors=True`` the full list comes back instead, each
        slot a :class:`~repro.service.SolveResponse` or the rebuilt
        :class:`~repro.service.ServiceError` for that item.
        """
        coerced = [self._coerce(request, strategy) for request in requests]
        payload = {"requests": [request.to_dict() for request in coerced]}
        reply = self._request(
            "POST", "/solve_batch", payload,
            idempotent=all(r.strategy == "base" for r in coerced),
        )
        outcomes = []
        for item in reply["results"]:
            if item["ok"]:
                outcomes.append(SolveResponse.from_dict(item["result"]))
            else:
                error = item.get("error") or {}
                outcomes.append(error_for_code(
                    error.get("code"), error.get("message", ""),
                    retry_after=error.get("retry_after"),
                ))
        if return_errors:
            return outcomes
        for outcome in outcomes:
            if isinstance(outcome, ServiceError):
                raise outcome
        return outcomes

    def fit(self, problems):
        """Fit the served repository on labelled problems; returns the
        post-fit stats. Never auto-retried (fitting mutates state)."""
        request = (
            problems if isinstance(problems, FitRequest)
            else FitRequest(problems=list(problems))
        )
        return RepositoryStats.from_dict(
            self._request("POST", "/fit", request.to_dict())
        )

    def save(self, path):
        """Ask the server to persist its session to a *server-side*
        directory; returns the acknowledged path."""
        return self._request("POST", "/save", {"path": str(path)})["saved"]

    def _coerce(self, request, strategy):
        if isinstance(request, SolveRequest):
            if strategy is not None:
                return SolveRequest(
                    problem=request.problem, strategy=strategy
                )
            return request
        if isinstance(request, ERProblem):
            return SolveRequest(problem=request, strategy=strategy)
        raise ServiceError(
            "solve expects a SolveRequest or an ERProblem, got "
            f"{type(request).__name__}"
        )


def _parse_retry_after(headers):
    """Seconds from a ``Retry-After`` header, or ``None``."""
    value = None if headers is None else headers.get("Retry-After")
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None
