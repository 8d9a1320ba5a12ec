"""Service-level errors: the failure vocabulary of the typed boundary.

Core MoRER raises Python-idiomatic exceptions (``ValueError`` for bad
arguments, :class:`~repro.core.NotFittedError` for lifecycle misuse).
At the service boundary those become explicit, client-meaningful
conditions — each with a stable machine-readable ``code`` and an HTTP
status the gateway maps to — instead of leaking implementation
exception types to remote callers.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "NotFitted",
    "InvalidRequest",
    "RequestTimeout",
    "PayloadTooLarge",
    "Overloaded",
    "RateLimited",
    "Unavailable",
    "TransportError",
    "error_for_code",
]


class ServiceError(Exception):
    """Base class of every error the service API raises on purpose.

    Attributes
    ----------
    code : str
        Stable machine-readable identifier, serialised over the wire.
    http_status : int
        Status the HTTP gateway answers with.
    """

    code = "service_error"
    http_status = 500

    def to_dict(self):
        """JSON-safe ``{"code", "message"}`` form for the gateway."""
        return {"code": self.code, "message": str(self)}


class NotFitted(ServiceError):
    """The repository has no models yet — fit (or load) first."""

    code = "not_fitted"
    http_status = 409


class InvalidRequest(ServiceError):
    """The request payload is malformed or semantically invalid."""

    code = "invalid_request"
    http_status = 400


class RequestTimeout(ServiceError):
    """The client stopped sending a request body before its declared
    ``Content-Length`` arrived. The gateway answers and closes the
    connection, since the body boundary is lost."""

    code = "request_timeout"
    http_status = 408


class PayloadTooLarge(ServiceError):
    """The request declared a body larger than the gateway reads. The
    gateway answers before reading any of it, drops what the client
    still sends for a bounded time, and closes the connection, since
    the unread body would otherwise parse as the next request."""

    code = "payload_too_large"
    http_status = 413


class Overloaded(ServiceError):
    """The micro-batching queue is full; retry with backoff."""

    code = "overloaded"
    http_status = 429


class RateLimited(ServiceError):
    """The client is over its per-client mutation quota.

    Raised by the gateway's token-bucket admission control *before*
    the request reaches the scheduler queue — nothing executed
    server-side. ``retry_after`` (seconds) says when the bucket will
    have refilled; the gateway mirrors it in a ``Retry-After`` header
    and :class:`~repro.service.ServiceClient` honours it when retrying
    idempotent calls.
    """

    code = "rate_limited"
    http_status = 429

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = (
            None if retry_after is None else float(retry_after)
        )

    def to_dict(self):
        data = super().to_dict()
        if self.retry_after is not None:
            data["retry_after"] = round(self.retry_after, 3)
        return data


class Unavailable(ServiceError):
    """Durability is lost (a WAL append failed) — the service is degraded.

    Mutating operations (cov solves, fit) are rejected so no decision
    can be taken that a post-crash replay would miss; read-only solves
    and stats keep working. Clears only on operator restart.
    """

    code = "unavailable"
    http_status = 503


class TransportError(ServiceError):
    """Client-side failure to reach the gateway (connection refused,
    reset, DNS). Never produced by the server; exists so retry logic
    can tell "the request never arrived" from a typed rejection."""

    code = "transport_error"
    http_status = 503


#: code -> exception class, used by the client to re-raise the exact
#: typed error a remote gateway reported.
_ERRORS_BY_CODE = {
    cls.code: cls for cls in (ServiceError, NotFitted, InvalidRequest,
                              RequestTimeout, PayloadTooLarge, Overloaded,
                              RateLimited, Unavailable)
}


def error_for_code(code, message, retry_after=None):
    """Rebuild the typed error a gateway serialised (client side)."""
    error = _ERRORS_BY_CODE.get(code, ServiceError)(message)
    if retry_after is not None:
        try:
            error.retry_after = float(retry_after)
        except (TypeError, ValueError):
            pass
    return error
