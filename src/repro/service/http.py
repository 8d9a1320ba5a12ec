"""A stdlib HTTP/JSON gateway in front of :class:`MoRERService`.

One ``ThreadingHTTPServer`` (one OS thread per in-flight request — the
service's read-write lock and micro-batching scheduler do the actual
concurrency control) and a tiny JSON protocol:

========  ==============  ====================================================
method    path            body -> response
========  ==============  ====================================================
GET       ``/healthz``    — -> full health dict (``status``, ``live``,
                          ``ready``, ``fitted``, ``queue_depth``, …)
GET       ``/livez``      — -> 200 ``{"live": true}`` while the process
                          answers at all
GET       ``/readyz``    — -> 200 when ready for mutating traffic,
                          503 + health dict when not (unfitted, closed
                          or degraded)
GET       ``/stats``      — -> :meth:`RepositoryStats.to_dict`
GET       ``/metrics``    — -> Prometheus text exposition (counters,
                          gauges, latency/batch histograms; see
                          ``docs/OPERATIONS.md`` for the full series
                          reference)
POST      ``/solve``      :meth:`SolveRequest.to_dict` ->
                          :meth:`SolveResponse.to_dict`
POST      ``/solve_batch``  ``{"requests": [SolveRequest...]}`` ->
                          ``{"results": [{"ok": true, "result": ...} |
                          {"ok": false, "error": ...}]}`` — per-item
                          envelopes; one poisoned probe no longer fails
                          its batch-mates
POST      ``/fit``        :meth:`FitRequest.to_dict` -> stats dict
POST      ``/save``       ``{"path": str}`` -> ``{"saved": str}``
========  ==============  ====================================================

Typed service errors map to their ``http_status`` (400
``invalid_request``, 408 ``request_timeout`` for a body that stalls
short of its ``Content-Length``, 413 ``payload_too_large`` for a
declared body above :data:`MAX_BODY_BYTES`, 409 ``not_fitted``, 429
``overloaded`` / ``rate_limited``, 503 ``unavailable`` when durability
is degraded) with a ``{"error": {"code", "message"}, "request_id"}``
body; anything unexpected is a 500.

Observability and admission
---------------------------
Every request carries a **request id** (the inbound ``X-Request-Id``
header, or a generated one), echoed as a response header and embedded
in error envelopes, and a **client id** (``X-Client-Id`` header, or
the remote address). One structured JSON line per request goes to the
:class:`~repro.service.observability.AccessLog` (request id, client
id, method, endpoint, status, latency, the scheduler batch id that
served a ``cov`` solve); the stdlib handler's printf-style messages
are routed through the same log at ``debug`` level instead of being
discarded. With ``rate_limit_rps`` set, a per-client token bucket
rejects over-quota **mutations** (``cov`` solves, ``fit``) with 429 +
``Retry-After`` *before* they reach the scheduler queue; read-only
traffic is never limited.

The gateway binds loopback by default and has no authentication —
``/save`` writes server-side paths, and the client id is caller-
asserted — so treat it like any other unauthenticated ops port: keep
it private.
"""

from __future__ import annotations

import json
import math
import socket
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import (
    InvalidRequest,
    PayloadTooLarge,
    RateLimited,
    RequestTimeout,
    ServiceError,
)
from .limiter import RateLimiter
from .observability import AccessLog

__all__ = ["ServiceHTTPServer"]


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`MoRERService`.

    Parameters
    ----------
    service : MoRERService
        The service to expose.
    address : (host, port)
        Bind address; port ``0`` picks an ephemeral port.
    log_requests : bool
        Also emit the stdlib handler's per-request lines (routed
        through the access log at ``debug`` level).
    access_log : AccessLog, optional
        Structured request log; defaults to JSON lines on stderr at
        ``info`` level (``debug`` when ``log_requests``). Pass
        ``AccessLog(level="off")`` to silence it.
    rate_limit_rps : float
        Per-client token-bucket admission control: each client
        (``X-Client-Id`` header or remote address) may submit this many
        mutations (``cov`` solves, ``fit``) per second sustained;
        over-quota requests get :class:`~repro.service.RateLimited`
        (HTTP 429 + ``Retry-After``) before they reach the scheduler
        queue. ``0`` (the default) disables limiting.
    rate_burst : float
        Bucket capacity, the instantaneous mutation allowance per
        client. ``0`` (the default) means ``max(rate_limit_rps, 1)``.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service, address=("127.0.0.1", 8640),
                 log_requests=False, access_log=None,
                 rate_limit_rps=0.0, rate_burst=0.0):
        if rate_limit_rps < 0:
            raise InvalidRequest("rate_limit_rps must be >= 0")
        if rate_burst < 0:
            raise InvalidRequest("rate_burst must be >= 0")
        self.service = service
        self.log_requests = log_requests
        if access_log is None:
            access_log = AccessLog(
                level="debug" if log_requests else "info"
            )
        self.access_log = access_log
        self.limiter = (
            RateLimiter(rate_limit_rps, rate_burst or None)
            if rate_limit_rps > 0 else None
        )
        super().__init__(tuple(address), _GatewayHandler)

    @property
    def url(self):
        """The ``http://host:port`` base clients should use."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self):
        super().server_close()
        self.access_log.close()


#: Largest request body the gateway reads (64 MiB). A longer declared
#: ``Content-Length`` answers 413 before any of the body is read. Fits
#: bigger than this belong in process (``MoRERService.fit``) or in a
#: store that ``repro serve --store`` loads.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: After a 413 the gateway half-closes and drops what the client still
#: sends, for at most this many seconds, before it closes. Closing with
#: unread input resets the connection, so a client still writing its
#: body (``ServiceClient``, like anything built on urllib) would fail
#: mid-send instead of reading the answer (RFC 9112 section 9.6).
_LINGER_SECONDS = 2.0

#: path -> handler method name, per HTTP method. Unknown paths are
#: labelled "other" in metrics so a scanner cannot explode the
#: endpoint label cardinality.
_GET_ROUTES = {
    "/healthz": "_get_healthz",
    "/livez": "_get_livez",
    "/readyz": "_get_readyz",
    "/stats": "_get_stats",
    "/metrics": "_get_metrics",
}
_POST_ROUTES = {
    "/solve": "_post_solve",
    "/solve_batch": "_post_solve_batch",
    "/fit": "_post_fit",
    "/save": "_post_save",
}


class _GatewayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "MoRERService"
    #: Socket timeout (seconds) for every read and write. A body that
    #: stops short of its Content-Length answers 408 instead of pinning
    #: the handler thread, and an idle keep-alive connection closes.
    timeout = 30
    #: Set once a request is refused unread (413): :meth:`finish`
    #: drains the connection before it closes.
    _linger = False

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # The stdlib's printf-style access/error lines ("GET /x 200",
        # send_error tracebacks). The structured access log is the
        # primary record; these are forwarded at debug level so they
        # stay inspectable (--log-requests) instead of vanishing.
        self.server.access_log.debug(
            source="stdlib",
            client=self.address_string(),
            request_id=getattr(self, "request_id", None),
            message=format % args,
        )

    def finish(self):
        super().finish()
        if self._linger:
            _drain(self.connection, _LINGER_SECONDS)

    def _send(self, status, body, content_type, retry_after=None):
        self._status = status
        # Metrics before the first response byte: a caller holding its
        # response must find /metrics already reflecting the request
        # (same contract as the service's _record_tick).
        self._record_metrics()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        if retry_after is not None:
            self.send_header(
                "Retry-After", str(max(1, math.ceil(retry_after)))
            )
        # end_headers() without its flush: status line, headers and
        # body leave in one write. A second small write on a keep-alive
        # connection waits for the ACK of the first (Nagle), which the
        # client delays: ~40 ms per response.
        self._headers_buffer.append(b"\r\n")
        self._headers_buffer.append(body)
        self.flush_headers()

    def _reply(self, status, payload):
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json")

    def _reply_error(self, error):
        payload = {"error": error.to_dict(),
                   "request_id": self.request_id}
        self._send(
            error.http_status, json.dumps(payload).encode("utf-8"),
            "application/json",
            retry_after=getattr(error, "retry_after", None),
        )

    def _content_length(self):
        """The declared body length. Anything but a non-negative decimal
        integer is a 400 (``-1`` would make ``rfile.read`` block until
        the client hangs up), and the connection closes because the
        body boundary is lost."""
        value = (self.headers.get("Content-Length") or "0").strip()
        if not (value.isascii() and value.isdigit()):
            self.close_connection = True
            raise InvalidRequest(f"invalid Content-Length {value!r}")
        return int(value)

    def _read_body(self):
        """The request body, exactly as long as its Content-Length.

        A declared length above :data:`MAX_BODY_BYTES` answers 413
        before any of the body is read, and the connection closes once
        :meth:`finish` has dropped what the client still sends.

        A client that stops sending mid-body gets 408 once the socket
        :attr:`timeout` expires; the connection closes, because the
        body boundary is lost and a timed-out ``rfile`` cannot be read
        again. (``socket.timeout`` is only an alias of ``TimeoutError``
        from Python 3.10.)
        """
        length = self._content_length()
        if not length:
            return b""
        if length > MAX_BODY_BYTES:
            self.close_connection = self._linger = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        try:
            return self.rfile.read(length)
        except socket.timeout as exc:
            self.close_connection = True
            raise RequestTimeout(
                f"request body incomplete after {self.timeout} s"
            ) from exc

    def _read_json(self):
        raw = self._read_body()
        if not raw:
            raise InvalidRequest("request body must be a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidRequest(
                f"request body is not valid JSON: {exc}"
            ) from exc

    # -- request lifecycle -------------------------------------------------

    def do_GET(self):
        self._route("GET", _GET_ROUTES)

    def do_POST(self):
        self._route("POST", _POST_ROUTES)

    def _route(self, method, routes):
        started = time.perf_counter()
        self._started = started
        self._method = method
        self._endpoint_label = "other"
        self._metrics_done = False
        self._status = 500
        self._batch_id = None
        self._error_code = None
        self.request_id = (
            (self.headers.get("X-Request-Id") or "").strip()[:64]
            or uuid.uuid4().hex[:16]
        )
        self.client_id = (
            (self.headers.get("X-Client-Id") or "").strip()[:128]
            or self.client_address[0]
        )
        endpoint = self.path.split("?", 1)[0]
        name = routes.get(endpoint)
        if name is not None:
            self._endpoint_label = endpoint
        try:
            if name is None:
                # Consume the unread body so the next request on a
                # keep-alive connection parses cleanly.
                self._read_body()
                self._error_code = "not_found"
                self._reply(404, {
                    "error": {"code": "not_found",
                              "message": f"no route {self.path}"},
                    "request_id": self.request_id,
                })
            else:
                payload = (
                    self._read_json() if method == "POST" else None
                )
                self._admit(endpoint, payload)
                getattr(self, name)(payload)
        except ServiceError as error:
            self._error_code = error.code
            self._reply_error(error)
        except Exception as exc:  # noqa: BLE001 - defensive 500; answer, not die
            self._error_code = "service_error"
            self._reply_error(ServiceError(f"internal error: {exc}"))
        finally:
            self._observe(
                method, endpoint, time.perf_counter() - started,
            )

    def _record_metrics(self):
        """Request counter/latency update, at most once per request.

        Runs from :meth:`_send` *before* any response byte (so a
        scrape racing the response always sees the request), and again
        from the ``finally`` path as a backstop for requests that died
        before replying."""
        if self._metrics_done:
            return
        self._metrics_done = True
        try:
            metrics = self.server.service.metrics
            metrics.http_requests_total.inc(
                endpoint=self._endpoint_label, method=self._method,
                status=str(self._status),
            )
            metrics.http_request_seconds.observe(
                time.perf_counter() - self._started,
                endpoint=self._endpoint_label,
            )
        except Exception:  # noqa: BLE001 - observing must never fail
            pass

    def _observe(self, method, endpoint, elapsed):
        """One structured access-log line per request (metrics were
        already recorded pre-response by :meth:`_record_metrics`)."""
        self._record_metrics()
        try:
            fields = {
                "request_id": self.request_id,
                "client_id": self.client_id,
                "method": method,
                "endpoint": endpoint,
                "status": self._status,
                "latency_ms": round(elapsed * 1e3, 3),
            }
            if self._batch_id is not None:
                fields["batch_id"] = self._batch_id
            if self._error_code is not None:
                fields["error"] = self._error_code
            self.server.access_log.info(**fields)
        except Exception:  # noqa: BLE001 - observing must never fail
            pass

    # -- admission control -------------------------------------------------

    def _admit(self, endpoint, payload):
        """Charge the client's token bucket for the mutations this
        request carries, *before* anything reaches the scheduler."""
        limiter = self.server.limiter
        if limiter is None:
            return
        cost = self._mutation_cost(endpoint, payload)
        if cost <= 0:
            return
        try:
            limiter.check(self.client_id, cost)
        except RateLimited:
            self.server.service.metrics.http_rate_limited_total.inc(
                endpoint=endpoint
            )
            raise

    def _mutation_cost(self, endpoint, payload):
        """Tokens this request costs: one per mutating solve/fit.

        Malformed payloads cost nothing — the route handler rejects
        them with a 400 that names the problem, which must win over a
        confusing 429.
        """
        if endpoint == "/fit":
            return 1
        default = self.server.service.morer.config.selection
        if endpoint == "/solve":
            strategy = (
                payload.get("strategy")
                if isinstance(payload, dict) else None
            )
            return 1 if (strategy or default) == "cov" else 0
        if endpoint == "/solve_batch":
            requests = (
                payload.get("requests")
                if isinstance(payload, dict) else None
            )
            if not isinstance(requests, list):
                return 0
            cost = 0
            for item in requests:
                strategy = (
                    item.get("strategy")
                    if isinstance(item, dict) else None
                )
                if (strategy or default) == "cov":
                    cost += 1
            return cost
        return 0    # /save: an operator checkpoint, not client traffic

    # -- GET routes --------------------------------------------------------

    def _get_healthz(self, _payload):
        self._reply(200, self.server.service.healthz())

    def _get_livez(self, _payload):
        self._reply(200, {"live": True})

    def _get_readyz(self, _payload):
        health = self.server.service.healthz()
        self._reply(200 if health.get("ready") else 503, health)

    def _get_stats(self, _payload):
        self._reply(200, self.server.service.stats().to_dict())

    def _get_metrics(self, _payload):
        body = self.server.service.metrics.render().encode("utf-8")
        self._send(200, body,
                   "text/plain; version=0.0.4; charset=utf-8")

    # -- POST routes -------------------------------------------------------

    def _post_solve(self, payload):
        response = self.server.service.solve(payload).to_dict()
        self._batch_id = response.get("batch_id")
        self._reply(200, response)

    def _post_solve_batch(self, payload):
        requests = payload.get("requests") if isinstance(
            payload, dict) else None
        if not isinstance(requests, list):
            raise InvalidRequest(
                "solve_batch body must be {\"requests\": [...]}"
            )
        outcomes = self.server.service.solve_batch_envelopes(requests)
        results = []
        batch_ids = set()
        for outcome in outcomes:
            if isinstance(outcome, ServiceError):
                results.append({"ok": False, "error": outcome.to_dict()})
            else:
                result = outcome.to_dict()
                if result.get("batch_id") is not None:
                    batch_ids.add(result["batch_id"])
                results.append({"ok": True, "result": result})
        if batch_ids:
            self._batch_id = sorted(batch_ids)
        self._reply(200, {"results": results})

    def _post_fit(self, payload):
        self._reply(200, self.server.service.fit(payload).to_dict())

    def _post_save(self, payload):
        path = payload.get("path") if isinstance(payload, dict) else None
        if not isinstance(path, str) or not path:
            raise InvalidRequest("save body must be {\"path\": str}")
        self.server.service.save(path)
        self._reply(200, {"saved": path})


def _drain(sock, seconds):
    """Half-close ``sock``, then read and drop its input until the peer
    closes or ``seconds`` pass: the close that follows then sends no
    reset over a response the peer has not read."""
    deadline = time.monotonic() + seconds
    try:
        sock.shutdown(socket.SHUT_WR)
        while (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            if not sock.recv(1 << 16):
                break
    except OSError:  # the peer reset, or the deadline passed mid-read
        pass
