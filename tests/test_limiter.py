"""Token-bucket admission control: bucket/limiter invariants with an
injectable clock, and the live-HTTP 429 + ``Retry-After`` contract —
rejections happen *before* the scheduler queue, and the typed client
honours the server's retry hint."""

import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    InvalidRequest,
    MoRERService,
    RateLimited,
    RateLimiter,
    ServiceClient,
    ServiceHTTPServer,
)
from repro.service.limiter import TokenBucket
from repro.service.fixtures import demo_morer, demo_probes


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


# -- TokenBucket ------------------------------------------------------------


def test_bucket_burst_then_refill():
    bucket = TokenBucket(rate=2.0, burst=4.0, now=0.0)
    # The full burst is available immediately...
    for _ in range(4):
        assert bucket.take(1, now=0.0) == 0.0
    # ...then the next token takes 1/rate seconds.
    retry_after = bucket.take(1, now=0.0)
    assert retry_after == pytest.approx(0.5)
    # Waiting exactly retry_after admits exactly one more.
    assert bucket.take(1, now=retry_after) == 0.0
    assert bucket.take(1, now=retry_after) > 0.0


def test_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
    # A huge idle period refills to burst, not beyond.
    assert bucket.take(0, now=1e6) == 0.0
    assert bucket.tokens == pytest.approx(3.0)
    for _ in range(3):
        assert bucket.take(1, now=1e6) == 0.0
    assert bucket.take(1, now=1e6) > 0.0


def test_bucket_retry_after_is_exact_refill_time():
    bucket = TokenBucket(rate=4.0, burst=1.0, now=0.0)
    assert bucket.take(1, now=0.0) == 0.0
    retry_after = bucket.take(1, now=0.0)
    assert retry_after == pytest.approx(0.25)
    # A hair before the promised time still rejects; at it, admits.
    assert bucket.take(1, now=retry_after * 0.9) > 0.0
    # (the failed takes above refilled partway; recompute from state)
    remaining = (1.0 - bucket.tokens) / bucket.rate
    assert bucket.take(1, now=bucket.updated + remaining) == 0.0


def test_bucket_ignores_backwards_clock():
    bucket = TokenBucket(rate=1.0, burst=2.0, now=100.0)
    assert bucket.take(1, now=100.0) == 0.0
    before = bucket.tokens
    # Time moving backwards must not mint (or destroy) tokens.
    bucket.take(0, now=50.0)
    assert bucket.tokens == pytest.approx(before)


@pytest.mark.parametrize("rate,burst", [(0.5, 1.0), (3.0, 7.0), (100.0, 100.0)])
def test_bucket_long_run_rate_is_bounded(rate, burst):
    """Over any window, admissions never exceed burst + rate * elapsed."""
    bucket = TokenBucket(rate=rate, burst=burst, now=0.0)
    admitted = 0
    now = 0.0
    for step in range(200):
        now += 0.01 * (step % 7)  # irregular arrival times
        if bucket.take(1, now=now) == 0.0:
            admitted += 1
    assert admitted <= burst + rate * now + 1e-9


# -- RateLimiter ------------------------------------------------------------


def test_limiter_deny_then_wait_then_admit():
    clock = FakeClock()
    limiter = RateLimiter(rate=1.0, burst=2.0, clock=clock)
    assert limiter.try_acquire("a") == 0.0
    assert limiter.try_acquire("a") == 0.0
    retry_after = limiter.try_acquire("a")
    assert retry_after > 0.0
    clock.advance(retry_after)
    assert limiter.try_acquire("a") == 0.0


def test_limiter_clients_are_isolated():
    clock = FakeClock()
    limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
    assert limiter.try_acquire("greedy") == 0.0
    assert limiter.try_acquire("greedy") > 0.0
    # The greedy client's empty bucket does not tax anyone else.
    assert limiter.try_acquire("polite") == 0.0


def test_limiter_check_raises_typed_error_with_retry_after():
    clock = FakeClock()
    limiter = RateLimiter(rate=2.0, burst=1.0, clock=clock)
    limiter.check("a")
    with pytest.raises(RateLimited) as excinfo:
        limiter.check("a")
    assert excinfo.value.retry_after == pytest.approx(0.5)
    assert excinfo.value.http_status == 429
    assert excinfo.value.to_dict()["retry_after"] == pytest.approx(0.5)


def test_limiter_impossible_cost_names_the_problem():
    limiter = RateLimiter(rate=1.0, burst=2.0, clock=FakeClock())
    with pytest.raises(RateLimited, match="split the batch"):
        limiter.check("a", cost=5)


def test_limiter_zero_cost_is_free_and_stateless():
    limiter = RateLimiter(rate=1.0, burst=1.0, clock=FakeClock())
    for _ in range(100):
        assert limiter.try_acquire("reader", cost=0) == 0.0
    assert len(limiter) == 0


def test_limiter_prunes_idle_buckets_at_capacity():
    clock = FakeClock()
    limiter = RateLimiter(rate=10.0, burst=1.0, max_clients=8, clock=clock)
    for i in range(8):
        limiter.try_acquire(f"client-{i}")
    assert len(limiter) == 8
    # Everyone refills; the next new client triggers a prune instead of
    # growing the table.
    clock.advance(10.0)
    limiter.try_acquire("client-new")
    assert len(limiter) <= 8


def test_limiter_rejects_nonpositive_rate():
    with pytest.raises(ValueError, match="rate"):
        RateLimiter(rate=0.0)
    with pytest.raises(ValueError, match="rate"):
        RateLimiter(rate=-1.0)


def test_limiter_default_burst_admits_single_requests():
    # A sub-1-rps quota must still let single calls through.
    limiter = RateLimiter(rate=0.1, clock=FakeClock())
    assert limiter.burst == 1.0
    assert limiter.try_acquire("a") == 0.0


def test_gateway_validates_its_rate_limit():
    """The rate limit is a gateway argument: off by default, and a
    negative rate or burst is refused before a socket is bound."""
    service = MoRERService(demo_morer(8))
    try:
        for knob in ("rate_limit_rps", "rate_burst"):
            with pytest.raises(InvalidRequest, match=knob):
                ServiceHTTPServer(service, ("127.0.0.1", 0), **{knob: -1})
        server = ServiceHTTPServer(service, ("127.0.0.1", 0))
        server.server_close()
        assert server.limiter is None
    finally:
        service.close()


# -- live HTTP --------------------------------------------------------------


@pytest.fixture
def limited_gateway():
    """A gateway whose per-client bucket holds exactly 2 mutations."""
    service = MoRERService(demo_morer(10), max_batch_size=4, max_wait_ms=5)
    server = ServiceHTTPServer(
        service, ("127.0.0.1", 0), rate_limit_rps=0.001, rate_burst=2,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_http_429_with_retry_after_before_the_queue(limited_gateway):
    client = ServiceClient(
        limited_gateway.url, client_id="tenant-a", retries=0
    )
    client.wait_ready(timeout=5)
    probes = demo_probes(3, seed=91)
    client.solve(probes[0], strategy="cov")
    client.solve(probes[1], strategy="cov")
    service = limited_gateway.service
    cov_before = service.stats().service["cov_solves"]
    with pytest.raises(RateLimited) as excinfo:
        client.solve(probes[2], strategy="cov")
    # The typed error carries the server's refill promise.
    assert excinfo.value.retry_after is not None
    assert excinfo.value.retry_after > 0
    # The rejection happened before admission: nothing was solved,
    # queued or dispatched for the third probe.
    stats = service.stats().service
    assert stats["cov_solves"] == cov_before
    assert stats["overload_rejections"] == 0
    assert service.metrics.http_rate_limited_total.value(
        endpoint="/solve"
    ) >= 1


def test_http_retry_after_header_is_set(limited_gateway):
    client = ServiceClient(
        limited_gateway.url, client_id="tenant-h", retries=0
    )
    client.wait_ready(timeout=5)
    probes = demo_probes(3, seed=92)
    client.solve_batch(probes[:2], strategy="cov")
    request = urllib.request.Request(
        limited_gateway.url + "/solve",
        data=__import__("json").dumps(
            {"problem": probes[2].to_dict(), "strategy": "cov"}
        ).encode("utf-8"),
        headers={"Content-Type": "application/json",
                 "X-Client-Id": "tenant-h"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    assert excinfo.value.code == 429
    retry_after = excinfo.value.headers.get("Retry-After")
    assert retry_after is not None and int(retry_after) >= 1
    assert excinfo.value.headers.get("X-Request-Id")


def test_http_base_solves_are_never_limited(limited_gateway):
    client = ServiceClient(
        limited_gateway.url, client_id="tenant-b", retries=0
    )
    client.wait_ready(timeout=5)
    probe = demo_probes(1, seed=93)[0].without_labels()
    # Far more base solves than the 2-token bucket could admit.
    for _ in range(6):
        assert client.solve(probe, strategy="base").predictions.size
    # Health/stats/metrics are free too.
    client.healthz()
    client.stats()


def test_http_clients_have_independent_buckets(limited_gateway):
    probes = demo_probes(4, seed=94)
    a = ServiceClient(limited_gateway.url, client_id="tenant-a2",
                      retries=0)
    b = ServiceClient(limited_gateway.url, client_id="tenant-b2",
                      retries=0)
    a.wait_ready(timeout=5)
    a.solve_batch(probes[:2], strategy="cov")
    with pytest.raises(RateLimited):
        a.solve(probes[2], strategy="cov")
    # Tenant B still has a full bucket.
    assert b.solve(probes[3], strategy="cov").predictions.size


def test_batch_cost_counts_cov_members_only(limited_gateway):
    client = ServiceClient(
        limited_gateway.url, client_id="tenant-c", retries=0
    )
    client.wait_ready(timeout=5)
    probes = [p.without_labels() for p in demo_probes(4, seed=95)]
    # 4 base members cost nothing against a 2-token bucket.
    responses = client.solve_batch(probes, strategy="base")
    assert len(responses) == 4
    # A 3-cov batch exceeds the burst outright: rejected atomically,
    # nothing executed.
    service = limited_gateway.service
    cov_before = service.stats().service["cov_solves"]
    with pytest.raises(RateLimited):
        client.solve_batch(demo_probes(3, seed=96), strategy="cov")
    assert service.stats().service["cov_solves"] == cov_before


def test_client_honours_retry_after_on_idempotent_retries(monkeypatch):
    client = ServiceClient("http://127.0.0.1:1", retries=1, backoff=0.001,
                           backoff_max=0.002)
    sleeps = []
    calls = []

    def fake_request_once(method, path, payload=None):
        calls.append(path)
        if len(calls) == 1:
            raise RateLimited("slow down", retry_after=0.7)
        return {"status": "ok"}

    monkeypatch.setattr(client, "_request_once", fake_request_once)
    monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
    assert client._request("GET", "/healthz", idempotent=True) == {
        "status": "ok"
    }
    # The sleep honoured the server's hint, not the (tiny) backoff.
    assert sleeps == [pytest.approx(0.7)]
    # Non-idempotent calls re-raise instead of retrying.
    calls.clear()
    with pytest.raises(RateLimited):
        client._request("POST", "/fit", {}, idempotent=False)
    assert len(calls) == 1


def test_client_parses_retry_after_from_error_envelope(limited_gateway):
    client = ServiceClient(
        limited_gateway.url, client_id="tenant-d", retries=0
    )
    client.wait_ready(timeout=5)
    probes = demo_probes(3, seed=97)
    client.solve_batch(probes[:2], strategy="cov")
    with pytest.raises(RateLimited) as excinfo:
        client.solve(probes[2], strategy="cov")
    # retry_after round-trips through the JSON envelope with sub-second
    # precision (the Retry-After header alone is whole seconds).
    assert excinfo.value.retry_after == pytest.approx(
        excinfo.value.retry_after, abs=1e-9
    )
    assert 0 < excinfo.value.retry_after < 1e6
