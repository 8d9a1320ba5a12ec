"""Per-client token-bucket admission control for the gateway.

The micro-batching scheduler already bounds the ``cov`` queue
(:class:`~repro.service.Overloaded` past the service's
``max_queue_depth``), but that bound is global: one greedy client can
keep it full and starve everyone. The :class:`RateLimiter` sits *in
front* of the queue, in the HTTP gateway: each client (``X-Client-Id``
header, or the remote address) gets its own :class:`TokenBucket`
refilled at the gateway's ``rate_limit_rps`` tokens per second up to
its ``rate_burst`` capacity, and a mutation costing more tokens than
the bucket holds is rejected with :class:`~repro.service.RateLimited`
(HTTP 429 + ``Retry-After``) before it touches the scheduler —
``Overloaded`` becomes a genuine backpressure signal instead of the
only defense.

Only mutations are charged (``cov`` solves one token each, ``fit`` one
per call); read-only traffic (``base`` solves, health, stats, metrics)
is never limited. Rejected requests execute nothing server-side, so a
rate-limited run's solve decisions are byte-identical to an unlimited
run of the admitted requests.
"""

from __future__ import annotations

import threading
import time

from .errors import RateLimited

__all__ = ["TokenBucket", "RateLimiter"]


class TokenBucket:
    """One client's bucket: ``rate`` tokens/second up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate, burst, now):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = float(now)

    def take(self, cost, now):
        """Try to spend ``cost`` tokens at time ``now``.

        Returns ``0.0`` on success, else the seconds until the bucket
        will have refilled enough — the ``Retry-After`` value. Time
        moving backwards (clock adjustments) is treated as no time
        having passed.
        """
        elapsed = now - self.updated
        if elapsed > 0:
            self.tokens = min(self.burst,
                              self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate

    @property
    def idle(self):
        """Full buckets carry no state worth keeping."""
        return self.tokens >= self.burst


class RateLimiter:
    """Per-client token buckets with bounded memory.

    Parameters
    ----------
    rate : float
        Sustained tokens per second granted to each client (> 0).
    burst : float, optional
        Bucket capacity — the instantaneous allowance. Defaults to
        ``max(rate, 1.0)`` so a sub-1-rps limit still admits single
        requests.
    max_clients : int
        Soft bound on tracked buckets: past it, refilled-idle buckets
        are pruned (an idle bucket is indistinguishable from a new
        one, so dropping it changes nothing).
    clock : callable
        Monotonic time source; injectable for tests.
    """

    def __init__(self, rate, burst=None, max_clients=10000,
                 clock=time.monotonic):
        self.rate = float(rate)
        if self.rate <= 0:
            raise ValueError("rate must be > 0 tokens per second")
        self.burst = float(burst) if burst else max(self.rate, 1.0)
        if self.burst <= 0:
            raise ValueError("burst must be > 0 tokens")
        self.max_clients = int(max_clients)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets = {}

    def __len__(self):
        with self._lock:
            return len(self._buckets)

    def try_acquire(self, client_id, cost=1):
        """Spend ``cost`` tokens from ``client_id``'s bucket.

        Returns ``0.0`` when admitted, else the retry-after seconds.
        A ``cost`` of zero (read-only traffic) is always admitted and
        creates no bucket.
        """
        if cost <= 0:
            return 0.0
        client_id = str(client_id)
        with self._lock:
            now = self._clock()
            bucket = self._buckets.get(client_id)
            if bucket is None:
                if len(self._buckets) >= self.max_clients:
                    self._prune()
                bucket = self._buckets[client_id] = TokenBucket(
                    self.rate, self.burst, now
                )
            return bucket.take(cost, now)

    def check(self, client_id, cost=1):
        """:meth:`try_acquire`, raising :class:`RateLimited` on deny."""
        retry_after = self.try_acquire(client_id, cost)
        if retry_after > 0:
            detail = (
                f"client {client_id!r} is over its mutation quota "
                f"({self.rate:g} req/s, burst {self.burst:g}); retry "
                f"after {retry_after:.3f}s"
            )
            if cost > self.burst:
                detail += (
                    f" — note: a single call costing {cost} exceeds "
                    f"the burst capacity {self.burst:g} and can never "
                    "be admitted; split the batch"
                )
            raise RateLimited(detail, retry_after=retry_after)

    def _prune(self):
        # Called with the lock held. Refill every bucket to the
        # present first, so long-idle ones register as full.
        now = self._clock()
        for client_id in [
            client_id for client_id, bucket in self._buckets.items()
            if bucket.take(0, now) == 0.0 and bucket.idle
        ]:
            del self._buckets[client_id]
