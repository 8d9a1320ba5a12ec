"""An HTTP/1.1 JSON gateway in front of :class:`MoRERService`.

One ``socketserver.ThreadingTCPServer`` (one OS thread per open
connection — the service's read-write lock and micro-batching scheduler
do the actual concurrency control) and a tiny JSON protocol:

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
``invalid_request``, 408 ``request_timeout`` for a request that stalls
short of its end, 413 ``payload_too_large`` for a declared body above
:data:`MAX_BODY_BYTES`, 409 ``not_fitted``, 429 ``overloaded`` /
``rate_limited``, 503 ``unavailable`` when durability is degraded) with
a ``{"error": {"code", "message"}, "request_id"}`` body; anything
unexpected is a 500.

Framing
-------
The gateway frames HTTP/1.1 itself on ``socketserver``'s stream
handler: ``http.server`` would load ``http.client``, ``email`` and
``ssl`` (~3.4 MB of a server's memory) to split a request line and its
headers. A request is a line ``METHOD TARGET HTTP/1.1`` (or
``HTTP/1.0``), at most :data:`_MAX_HEADERS` header lines of ASCII
without control characters, each at most :data:`_MAX_LINE` bytes, and a
body of exactly ``Content-Length`` bytes (duplicate lengths must agree).
Header names match in any case. A connection stays open between
requests unless the client sends ``Connection: close`` (or speaks
HTTP/1.0 without ``Connection: keep-alive``), and ``Expect:
100-continue`` is answered just before the body is read. A request the
gateway cannot frame, one with a ``Transfer-Encoding``, and any method
but GET and POST get a 400 ``invalid_request`` and a close. Every
response leaves in one write.

Observability and admission
---------------------------
Every request carries a **request id** (the inbound ``X-Request-Id``
header, or a generated one), echoed as a response header and embedded
in error envelopes, and a **client id** (``X-Client-Id`` header, or
the remote address). One structured JSON line per request goes to the
:class:`~repro.service.observability.AccessLog` (request id, client
id, method, endpoint, status, latency, the scheduler batch id that
served a ``cov`` solve). With ``rate_limit_rps`` set, a per-client
token bucket rejects over-quota **mutations** (``cov`` solves,
``fit``) with 429 + ``Retry-After`` *before* they reach the scheduler
queue; read-only traffic is never limited.

The gateway binds loopback by default and has no authentication —
``/save`` writes server-side paths, and the client id is caller-
asserted — so treat it like any other unauthenticated ops port: keep
it private.
"""

from __future__ import annotations

import json
import math
import re
import socket
import socketserver
import time
import uuid

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


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """HTTP server bound to one :class:`MoRERService`.

    Parameters
    ----------
    service : MoRERService
        The service to expose.
    address : (host, port)
        Bind address; port ``0`` picks an ephemeral port.
    access_log : AccessLog, optional
        Structured request log; defaults to JSON lines on stderr at
        ``info`` level. Pass ``AccessLog(level="off")`` to silence it.
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
                 access_log=None, rate_limit_rps=0.0, rate_burst=0.0):
        if rate_limit_rps < 0:
            raise InvalidRequest("rate_limit_rps must be >= 0")
        if rate_burst < 0:
            raise InvalidRequest("rate_burst must be >= 0")
        self.service = service
        self.access_log = AccessLog() if access_log is None else access_log
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

#: Longest request line or header line, and most header lines, the
#: gateway reads (the limits ``http.server`` kept).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: After refusing a request it has not read to the end, the gateway
#: half-closes and drops what the client still sends, for at most this
#: many seconds, before it closes. Closing with unread input resets the
#: connection, so a client still writing its body (``ServiceClient``,
#: like anything built on urllib) would fail mid-send instead of
#: reading the answer (RFC 9112 section 9.6).
_LINGER_SECONDS = 2.0

#: A header field name (RFC 9110 ``token``), and the control characters
#: no line of a request head may hold (horizontal tab aside).
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")

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


class _Headers(dict):
    """Request header fields by lower-cased name; :meth:`get` takes a
    name in any case, because field names are case-insensitive."""

    def get(self, name, default=None):
        return super().get(name.lower(), default)


class _GatewayHandler(socketserver.StreamRequestHandler):
    #: Socket timeout (seconds) for every read and write. A request that
    #: stops short of its end answers 408 instead of pinning the handler
    #: thread, and an idle keep-alive connection closes.
    timeout = 30
    #: Set once a request is refused with input left unread:
    #: :meth:`finish` drains the connection before it closes.
    _linger = False

    # -- framing -----------------------------------------------------------

    def handle(self):
        """Serve the requests of one connection until it closes."""
        self.close_connection = False
        while not self.close_connection:
            self._handle_one()

    def finish(self):
        super().finish()
        if self._linger:
            _drain(self.connection, _LINGER_SECONDS)

    def _handle_one(self):
        """Read one request head and dispatch it to :meth:`do_GET` or
        :meth:`do_POST`, or answer why it cannot be served."""
        self.headers = _Headers()
        self.method = self.path = None
        self._expect_continue = False
        try:
            if not self.rfile.peek(1):
                self.close_connection = True    # the client hung up
                return
            self._read_head()
        except ServiceError as error:
            self._refuse(error)
            return
        except OSError:
            # Idle past the timeout before a request began, or the
            # client reset the connection: nobody waits for an answer.
            self.close_connection = True
            return
        if self.method == "GET":
            self.do_GET()
        elif self.method == "POST":
            self.do_POST()
        else:
            self._refuse(InvalidRequest(
                f"method {self.method[:16]!r} is not supported; use GET "
                "or POST"
            ))

    def _read_head(self):
        """Parse the request line and header fields into :attr:`method`,
        :attr:`path` and :attr:`headers`, and whether the connection
        closes after the response."""
        parts = self._read_line().split(" ")
        if len(parts) != 3 or not all(parts):
            raise InvalidRequest(
                "malformed request line; expected 'METHOD TARGET HTTP/1.1'"
            )
        self.method, self.path, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise InvalidRequest(f"unsupported HTTP version {version[:16]!r}")
        for _ in range(_MAX_HEADERS + 1):
            line = self._read_line()
            if not line:
                break
            name, colon, value = line.partition(":")
            if not colon or not _TOKEN.fullmatch(name):
                raise InvalidRequest(f"malformed header line {line[:64]!r}")
            value = value.strip(" \t")
            previous = self.headers.get(name)
            self.headers[name.lower()] = (
                value if previous is None else f"{previous}, {value}"
            )
        else:
            raise InvalidRequest(f"more than {_MAX_HEADERS} header lines")
        connection = {
            token.strip().lower()
            for token in self.headers.get("Connection", "").split(",")
        }
        if version == "HTTP/1.1":
            self.close_connection = "close" in connection
            self._expect_continue = (
                self.headers.get("Expect", "").lower() == "100-continue"
            )
        else:
            self.close_connection = "keep-alive" not in connection

    def _read_line(self):
        """One line of the request head, without its CRLF (or LF)."""
        try:
            line = self.rfile.readline(_MAX_LINE + 1)
        except socket.timeout as exc:
            raise RequestTimeout(
                f"request head incomplete after {self.timeout} s"
            ) from exc
        if len(line) > _MAX_LINE:
            raise InvalidRequest(
                f"request head line longer than {_MAX_LINE} bytes"
            )
        if not line.endswith(b"\n"):
            raise InvalidRequest("request head ended mid-line")
        if not line.isascii():
            raise InvalidRequest("request head holds non-ASCII bytes")
        text = line.decode("ascii").rstrip("\r\n")
        if _CONTROL.search(text):
            raise InvalidRequest("request head holds control characters")
        return text

    def _content_length(self):
        """The declared body length. Anything but a non-negative decimal
        integer, or duplicate lengths that disagree, is a 400 (``-1``
        would make ``rfile.read`` block until the client hangs up), and
        the connection closes because the body boundary is lost."""
        declared = self.headers.get("Content-Length") or "0"
        values = {value.strip() for value in declared.split(",")}
        value = values.pop() if len(values) == 1 else ""
        if not (value.isascii() and value.isdigit()):
            self.close_connection = self._linger = True
            raise InvalidRequest(f"invalid Content-Length {declared!r}")
        return int(value)

    def _read_body(self):
        """The request body, exactly as long as its Content-Length.

        Every request's body is read or refused, so the next request on
        a keep-alive connection parses cleanly. A ``Transfer-Encoding``
        (a chunked body) is refused. A declared length above
        :data:`MAX_BODY_BYTES` answers 413 before any of the body is
        read, and the connection closes once :meth:`finish` has dropped
        what the client still sends.

        A client that stops sending mid-body gets 408 once the socket
        :attr:`timeout` expires; the connection closes, because the
        body boundary is lost and a timed-out ``rfile`` cannot be read
        again. (``socket.timeout`` is only an alias of ``TimeoutError``
        from Python 3.10.)
        """
        if self.headers.get("Transfer-Encoding") is not None:
            self.close_connection = self._linger = True
            raise InvalidRequest(
                "Transfer-Encoding is not supported; send a Content-Length"
            )
        length = self._content_length()
        if not length:
            return b""
        if length > MAX_BODY_BYTES:
            self.close_connection = self._linger = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if self._expect_continue:
            self._expect_continue = False
            self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = self.rfile.read(length)
        except socket.timeout as exc:
            self.close_connection = True
            raise RequestTimeout(
                f"request body incomplete after {self.timeout} s"
            ) from exc
        except OSError as exc:
            self.close_connection = True
            raise InvalidRequest(f"request body incomplete: {exc}") from exc
        if len(body) < length:
            self.close_connection = True
            raise InvalidRequest(
                f"request body ended after {len(body)} of {length} bytes"
            )
        return body

    def _write(self, data):
        try:
            self.wfile.write(data)
        except OSError:
            # The client went away; there is nobody left to answer.
            self.close_connection = True
            self._linger = False

    def _send(self, status, body, content_type, retry_after=None):
        self._status = status
        # Metrics before the first response byte: a caller holding its
        # response must find /metrics already reflecting the request
        # (same contract as the service's _record_tick).
        self._record_metrics()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
            "Server: MoRERService",
            f"Date: {_http_date()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Request-Id: {self.request_id}",
        ]
        if self.close_connection:
            lines.append("Connection: close")
        if retry_after is not None:
            lines.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
        # Status line, headers and body leave in one write. A second
        # small write on a keep-alive connection waits for the ACK of
        # the first (Nagle), which the client delays: ~40 ms per
        # response.
        lines.append("\r\n")
        self._write("\r\n".join(lines).encode("ascii") + body)

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

    def _refuse(self, error):
        """Answer a request that cannot be served, then close the
        connection; unless the request stalled, the close lingers over
        what the client sent after the head."""
        self._begin("other")
        self.close_connection = True
        self._linger = not isinstance(error, RequestTimeout)
        self._error_code = error.code
        self._reply_error(error)
        self._observe(self.method, self.path)

    # -- request lifecycle -------------------------------------------------

    def do_GET(self):
        self._route("GET", _GET_ROUTES)

    def do_POST(self):
        self._route("POST", _POST_ROUTES)

    def _begin(self, method):
        """Per-request state: the clock, the metric labels, and the
        request and client ids."""
        self._started = time.perf_counter()
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

    def _route(self, method, routes):
        self._begin(method)
        endpoint = self.path.split("?", 1)[0]
        name = routes.get(endpoint)
        if name is not None:
            self._endpoint_label = endpoint
        try:
            body = self._read_body()
            if name is None:
                self._error_code = "not_found"
                self._reply(404, {
                    "error": {"code": "not_found",
                              "message": f"no route {self.path}"},
                    "request_id": self.request_id,
                })
            else:
                payload = _parse_json(body) if method == "POST" else None
                self._admit(endpoint, payload)
                getattr(self, name)(payload)
        except ServiceError as error:
            self._error_code = error.code
            self._reply_error(error)
        except Exception as exc:  # noqa: BLE001 - defensive 500; answer, not die
            self._error_code = "service_error"
            self._reply_error(ServiceError(f"internal error: {exc}"))
        finally:
            self._observe(method, endpoint)

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

    def _observe(self, method, endpoint):
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
                "latency_ms": round(
                    (time.perf_counter() - self._started) * 1e3, 3
                ),
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


def _parse_json(body):
    """The JSON document a POST body holds, or a 400 naming why not."""
    if not body:
        raise InvalidRequest("request body must be a JSON object")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise InvalidRequest(
            f"request body is not valid JSON: {exc}"
        ) from exc


def _http_date():
    """The current time as an HTTP date (RFC 9110 section 5.6.7), in
    English whatever the process locale."""
    now = time.gmtime()  # repro: ignore[REP002] - a header, not a decision
    return (
        f"{_WEEKDAYS[now.tm_wday]}, {now.tm_mday:02d} "
        f"{_MONTHS[now.tm_mon - 1]} {now.tm_year} "
        f"{now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT"
    )


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
