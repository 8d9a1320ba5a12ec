"""HTTP gateway + typed client end-to-end tests (loopback, ephemeral
port): routing, JSON (de)serialisation, typed error status mapping,
and fit -> solve -> save through the wire."""

import json
import socket
import threading
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.core import MoRER
from repro.service import (
    InvalidRequest,
    MoRERService,
    NotFitted,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    SolveRequest,
)
from repro.service.fixtures import demo_morer, demo_probes, demo_problems


def _largest_tick(responses):
    """The most responses one scheduler tick served: a tick stamps its
    id on every response it produced."""
    return max(Counter(r.batch_id for r in responses).values())


@pytest.fixture
def gateway():
    """A served fixture repository on an ephemeral loopback port."""
    service = MoRERService(demo_morer(10), max_batch_size=4, max_wait_ms=10)
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_healthz_and_stats(gateway):
    client = ServiceClient(gateway.url)
    health = client.wait_ready(timeout=5)
    assert health["status"] == "ok" and health["fitted"] is True
    stats = client.stats()
    assert stats.fitted and stats.n_entries >= 1
    assert stats.n_problems == 10
    assert stats.service["max_batch_size"] == 4


def test_solve_over_http_matches_in_process(gateway):
    probe = demo_probes(1)[0].without_labels()
    client = ServiceClient(gateway.url)
    remote = client.solve(probe, strategy="base")
    direct = demo_morer(10).solve(probe, strategy="base")
    assert remote.cluster_id == direct.cluster_id
    assert np.array_equal(remote.predictions, direct.predictions)
    assert remote.similarity == pytest.approx(direct.similarity)


def test_solve_batch_over_http_coalesces(gateway):
    client = ServiceClient(gateway.url)
    probes = demo_probes(4, seed=21)
    responses = client.solve_batch(probes, strategy="cov")
    assert len(responses) == 4
    assert all(r.predictions.size for r in responses)
    # The gateway enqueued the whole batch before blocking, so the
    # scheduler saw them together.
    assert gateway.service.stats().service["batches_dispatched"] >= 1
    assert _largest_tick(responses) >= 2


def test_save_endpoint_round_trips(gateway, tmp_path):
    client = ServiceClient(gateway.url)
    client.solve_batch(demo_probes(2, seed=33), strategy="cov")
    store = tmp_path / "http_store"
    assert client.save(store) == str(store)
    restored = MoRER.load(store)
    assert restored.solve(demo_probes(1, seed=34)[0]).predictions.size


def test_error_status_mapping():
    service = MoRERService(MoRER(
        selection="cov", model_generation="supervised",
        classifier="logistic_regression", random_state=0,
    ))
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url)
    try:
        client.wait_ready(timeout=5)
        # 409 not_fitted, re-raised as the typed error.
        with pytest.raises(NotFitted):
            client.solve(demo_probes(1)[0])
        # 400 invalid_request for malformed payloads.
        with pytest.raises(InvalidRequest):
            client._request("POST", "/solve", {"problem": {"nope": 1}})
        # Invalid JSON body -> 400 with a JSON error envelope.
        request = urllib.request.Request(
            server.url + "/solve", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read().decode("utf-8"))
        assert envelope["error"]["code"] == "invalid_request"
        # Unknown route -> 404, surfaced as a generic ServiceError.
        with pytest.raises(ServiceError, match="no route /nope"):
            client._request("GET", "/nope")
        # Fit over the wire, then the same solve succeeds.
        stats = client.fit(demo_problems(8))
        assert stats.fitted and stats.n_problems == 8
        assert client.solve(demo_probes(1)[0]).predictions.size
        # Refit -> 400 invalid_request.
        with pytest.raises(InvalidRequest, match="already fitted"):
            client.fit(demo_problems(8))
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_keep_alive_survives_posting_to_unknown_route(gateway):
    """A 404 must drain the request body so the next request on the
    same persistent connection parses cleanly."""
    import http.client

    host, port = gateway.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = json.dumps({"some": "payload" * 50})
        connection.request("POST", "/nope", body=body,
                           headers={"Content-Type": "application/json"})
        reply = connection.getresponse()
        assert reply.status == 404
        reply.read()
        # Same socket, second request: must not see leftover body bytes.
        probe = demo_probes(1, seed=42)[0]
        connection.request(
            "POST", "/solve",
            body=json.dumps(
                SolveRequest(problem=probe, strategy="base").to_dict()
            ),
            headers={"Content-Type": "application/json"},
        )
        reply = connection.getresponse()
        assert reply.status == 200
        payload = json.loads(reply.read().decode("utf-8"))
        assert payload["predictions"]
    finally:
        connection.close()


@pytest.mark.parametrize("path", ["/solve", "/nope"])
def test_malformed_content_length_is_400_not_a_hang(gateway, path):
    """A Content-Length that is not a non-negative integer answers 400
    ``invalid_request`` and closes the connection: ``abc`` must not be a
    500, and ``-1`` must not block the handler thread in
    ``rfile.read(-1)`` until the client hangs up. Unknown routes (which
    drain the body) reject it too, and the gateway keeps serving."""
    host, port = gateway.server_address[:2]
    for value in ("abc", "-1"):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {value}\r\n\r\n{{}}".encode("ascii")
            )
            reply = b""
            # The server must close the socket; a hang times out.
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), (value, head)
        assert b"connection: close" in head.lower(), head
        envelope = json.loads(body.decode("utf-8"))
        assert envelope["error"]["code"] == "invalid_request"
        assert "Content-Length" in envelope["error"]["message"]
    with urllib.request.urlopen(gateway.url + "/livez", timeout=5) as reply:
        assert json.loads(reply.read().decode("utf-8")) == {"live": True}


@pytest.mark.parametrize("path", ["/solve", "/nope"])
def test_oversized_body_is_413_before_it_is_read(gateway, path):
    """A declared body above the gateway's limit answers 413
    ``payload_too_large`` at once, without waiting for (or reading) any
    of it, and closes the connection; the gateway keeps serving."""
    from repro.service.http import MAX_BODY_BYTES

    host, port = gateway.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode("ascii")
        )
        reply = b""
        # No body follows: the answer and the close must not wait for it.
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 "), head
    assert b"connection: close" in head.lower(), head
    envelope = json.loads(body.decode("utf-8"))
    assert envelope["error"]["code"] == "payload_too_large"
    with urllib.request.urlopen(gateway.url + "/livez", timeout=5) as reply:
        assert json.loads(reply.read().decode("utf-8")) == {"live": True}


def test_oversized_body_streamed_whole_still_gets_the_413(gateway, monkeypatch):
    """A client that writes its whole body before it reads (the typed
    client, over urllib) gets the typed 413 rather than a reset: the
    gateway half-closes and drops the unread body before it closes."""
    from repro.service import PayloadTooLarge, http

    monkeypatch.setattr(http, "MAX_BODY_BYTES", 1024)
    client = ServiceClient(gateway.url, retries=0)
    # 8 MiB is far more than the socket buffers hold, so the client is
    # still sending when the answer and the half-close arrive.
    with pytest.raises(PayloadTooLarge):
        client.save("x" * (8 << 20))
    assert client.healthz()["live"] is True


def test_keep_alive_responses_do_not_stall(gateway):
    """Status line, headers and body leave in one write: a response
    split in two waits on Nagle plus the client's delayed ACK, ~40 ms
    per request on a persistent connection."""
    import http.client
    import statistics
    import time

    host, port = gateway.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            connection.request("GET", "/livez")
            reply = connection.getresponse()
            assert json.loads(reply.read().decode("utf-8")) == {"live": True}
            latencies.append(time.perf_counter() - started)
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_short_body_is_408_and_frees_the_handler(gateway, monkeypatch):
    """A body shorter than its Content-Length answers 408
    ``request_timeout`` once the socket timeout expires and closes the
    connection, instead of pinning a handler thread in ``rfile.read``."""
    import time

    from repro.service.http import _GatewayHandler

    monkeypatch.setattr(_GatewayHandler, "timeout", 0.5)
    host, port = gateway.server_address[:2]
    baseline = threading.active_count()
    replies = []
    for path in ("/solve", "/nope"):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 100\r\n\r\n{\"problem\": ".encode("ascii")
            )
            reply = b""
            while True:  # the server must answer and close within 5 s
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        replies.append(reply)
    for reply in replies:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), head
        assert b"connection: close" in head.lower(), head
        envelope = json.loads(body.decode("utf-8"))
        assert envelope["error"]["code"] == "request_timeout"
    deadline = time.monotonic() + 5
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() <= baseline
    with urllib.request.urlopen(gateway.url + "/livez", timeout=5) as reply:
        assert json.loads(reply.read().decode("utf-8")) == {"live": True}


def test_reset_mid_body_is_a_client_error(gateway):
    """A client that resets its connection mid-body is counted as a 400,
    not as a server error, and the gateway keeps serving."""
    import struct
    import time

    host, port = gateway.server_address[:2]
    sock = socket.create_connection((host, port), timeout=5)
    sock.sendall(b"POST /solve HTTP/1.1\r\nContent-Length: 1000\r\n\r\n"
                 b'{"problem": ')
    time.sleep(0.1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()  # linger 0: the close sends a reset
    requests = gateway.service.metrics.http_requests_total
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not requests.value(
            endpoint="/solve", method="POST", status="400"):
        time.sleep(0.02)
    assert requests.value(endpoint="/solve", method="POST",
                          status="400") == 1
    assert requests.value(endpoint="/solve", method="POST",
                          status="500") == 0
    with urllib.request.urlopen(gateway.url + "/livez", timeout=5) as reply:
        assert json.loads(reply.read().decode("utf-8")) == {"live": True}


def test_concurrent_http_clients_coalesce():
    service = MoRERService(demo_morer(12), max_batch_size=8,
                           max_wait_ms=150)
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(server.url)
        client.wait_ready(timeout=5)
        probes = demo_probes(8, seed=71)
        responses = [None] * len(probes)
        errors = []

        def one(i):
            try:
                responses[i] = client.solve(
                    SolveRequest(problem=probes[i], strategy="cov")
                )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=one, args=(i,))
            for i in range(len(probes))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert all(r is not None and r.predictions.size for r in responses)
        # 8 concurrent clients produced fewer than 8 ticks.
        assert service.stats().service["batches_dispatched"] < len(probes)
        assert _largest_tick(responses) >= 2
    finally:
        server.shutdown()
        server.server_close()
        service.close()


# -- seeded framing fuzz ------------------------------------------------------


def _exchange(address, data, half_close=True, timeout=5.0):
    """Send raw bytes, then read until the server closes; returns the
    ``(status, headers, body)`` of each response (interim ``100`` ones
    skipped).
    ``half_close`` ends the client's side at once, as a client with
    nothing more to send does; without it the server must time out."""
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused mid-send: the answer is still to be read
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    replies = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        status = int(lines[0].split(" ")[1])
        if status == 100:
            raw = rest
            continue
        fields = dict(line.split(": ", 1) for line in lines[1:])
        length = int(fields["Content-Length"])
        replies.append((status, fields, rest[:length]))
        raw = rest[length:]
    return replies


def _request(method, path, body=b"", headers=(), version="HTTP/1.1"):
    lines = [f"{method} {path} {version}", "Host: fuzz"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body and not any(n.lower() in ("content-length", "transfer-encoding")
                        for n, _ in headers):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _solve_body(rng, rows=None, cols=4, strategy=None, value=None):
    rows = rows or rng.randint(1, 40)
    features = [[value if value is not None else round(rng.random(), 3)
                 for _ in range(cols)] for _ in range(rows)]
    problem = {"source_a": f"Z{rng.randint(0, 999)}",
               "source_b": f"W{rng.randint(0, 999)}", "features": features}
    payload = {"problem": problem,
               "strategy": strategy or rng.choice(["base", "cov"])}
    return json.dumps(payload).encode("ascii")


#: Each draws one raw request (``bytes``, half-close?) from the rng.
_FUZZ_CASES = (
    # Request lines: truncated, overlong, versionless, malformed.
    lambda rng: (b"GET /liv", True),
    lambda rng: (b"POST /solve HTTP/1.1\r\nContent-Le", False),
    lambda rng: (b"GET /" + b"a" * rng.randint(65540, 70000)
                 + b" HTTP/1.1\r\n\r\n", True),
    lambda rng: (rng.choice([b"GET /livez\r\n\r\n", b"GET\r\n\r\n",
                             b"\r\n\r\n", b"GET  /livez HTTP/1.1\r\n\r\n",
                             b"GET /livez HTTP/2.0\r\n\r\n",
                             b"GET /livez HTTX/1.1 extra\r\n\r\n"]), True),
    # Header floods and bad header lines.
    lambda rng: (_request("GET", "/livez", headers=[
        (f"X-Flood-{i}", "x") for i in range(rng.randint(101, 300))]), True),
    lambda rng: (_request("GET", "/livez", headers=[
        ("X-Long", "y" * rng.randint(65540, 70000))]), True),
    lambda rng: (rng.choice([
        b"GET /livez HTTP/1.1\r\nNo colon here\r\n\r\n",
        b"GET /livez HTTP/1.1\r\nX-Nul: a\x00b\r\n\r\n",
        b"GET /livez HTTP/1.1\r\nX-Name: caf\xc3\xa9\r\n\r\n",
        b"GET /livez HTTP/1.1\r\nX-Fold: a\r\n  folded\r\n\r\n",
        b"GET /livez HTTP/1.1\r\nBad Name: x\r\n\r\n",
        b"GET /livez HTTP/1.1\r\nX-Cr: a\rb\r\n\r\n",
    ]), True),
    # Content-Length: negative, conflicting, not a number.
    lambda rng: (_request("POST", "/solve", b"{}", headers=[
        ("Content-Length", rng.choice(["-1", "abc", "+2", "2, 3", "0x2"]))]),
        True),
    lambda rng: (_request("POST", rng.choice(["/solve", "/nope"]), b"{}",
                          headers=[("Content-Length", "2"),
                                   ("Content-Length", "3")]), True),
    # Chunked and short bodies.
    lambda rng: (_request("POST", "/solve", b"2\r\n{}\r\n0\r\n\r\n",
                          headers=[("Transfer-Encoding", "chunked")]), True),
    lambda rng: (_request("POST", "/solve", b'{"problem": ',
                          headers=[("Content-Length", "100")]),
                 rng.random() < 0.5),
    # Bodies that are not JSON, or JSON of the wrong shape.
    lambda rng: (_request("POST", rng.choice(["/solve", "/solve_batch",
                                              "/fit", "/save"]),
                          rng.choice([b"{not json", b"\xff\xfe\x00",
                                      b"[" * 100000, b"null", b"[]",
                                      b'"text"', b"{}", b"   "])), True),
    lambda rng: (_request("POST", "/solve", rng.choice([
        b'{"problem": 5}',
        b'{"problem": {"source_a": 1, "source_b": "b", "features": []}}',
        b'{"problem": {"source_a": "a", "source_b": "b", "features": []}}',
        b'{"problem": {"source_a": "a", "source_b": "b", '
        b'"features": [0.5, 0.5]}}',
        b'{"problem": {"source_a": "a", "source_b": "b", '
        b'"features": [[0.5, "x", 0.5, 0.5]]}}',
        b'{"problem": {"source_a": "a", "source_b": "b", '
        b'"features": [[0.5, 0.5, 0.5, 0.5]], "labels": [7]}}',
        b'{"problem": {"source_a": "a", "source_b": "b", '
        b'"features": [[0.5, 0.5, 0.5, 0.5]], "pair_ids": [1]}}',
        b'{"problem": {"source_a": "a", "source_b": "b", '
        b'"features": [[0.5, 0.5, 0.5, 0.5]]}, "strategy": "best"}',
    ])), True),
    lambda rng: (_request("POST", "/solve", _solve_body(
        rng, value=rng.choice([float("nan"), float("inf"), -3.0, 7.0]))),
        True),
    lambda rng: (_request("POST", "/solve", _solve_body(
        rng, cols=rng.choice([1, 3, 5, 9]))), True),
    lambda rng: (_request("POST", "/solve", _solve_body(
        rng, rows=rng.randint(20000, 40000), cols=3)), True),
    lambda rng: (_request("POST", "/solve_batch", rng.choice([
        b'{"requests": "x"}', b'{"requests": [5, {}, null]}',
        b'{"requests": [{"problem": {"source_a": "a", "source_b": "b", '
        b'"features": [[2.0, 0.5, 0.5, 0.5]]}}]}',
    ])), True),
    # Methods other than GET and POST, and unknown paths.
    lambda rng: (_request(rng.choice(["PUT", "HEAD", "DELETE", "OPTIONS",
                                      "PATCH", "get"]),
                          rng.choice(["/solve", "/livez", "/nope"]),
                          rng.choice([b"", b"{}"])), True),
    lambda rng: (_request(rng.choice(["GET", "POST"]),
                          rng.choice(["/nope", "/solve/x", "*", "livez",
                                      "/livez/../stats"]),
                          rng.choice([b"", b"{}"])), True),
    # Well-formed requests among them: they must still succeed.
    lambda rng: (_request("GET", rng.choice(["/livez", "/healthz", "/stats",
                                             "/readyz"]),
                          version=rng.choice(["HTTP/1.1", "HTTP/1.0"])),
                 True),
    lambda rng: (_request("POST", "/solve", _solve_body(rng, strategy="base"),
                          headers=[("Expect", "100-continue")]), True),
)


def test_seeded_gateway_fuzz(gateway, monkeypatch):
    """~50 raw-socket requests drawn from a fixed seed: truncated,
    overlong or versionless request lines, header floods and bad header
    lines, negative or conflicting Content-Lengths, chunked and short
    bodies, bodies that are not JSON or have the wrong shape, other
    methods and unknown paths. Each gets a 2xx or 4xx JSON envelope
    within the (shortened) handler timeout, never a 5xx or a hang; the
    handler threads all end and ``/livez`` still answers."""
    import random
    import time

    from repro.service.http import _GatewayHandler

    monkeypatch.setattr(_GatewayHandler, "timeout", 0.5)
    address = gateway.server_address[:2]
    baseline = threading.active_count()
    rng = random.Random(27)
    draws = [case(rng) for case in _FUZZ_CASES]
    draws += [rng.choice(_FUZZ_CASES)(rng) for _ in range(50 - len(draws))]
    statuses = Counter()
    for data, half_close in draws:
        replies = _exchange(address, data, half_close)
        assert len(replies) == 1, (data[:120], replies)
        status, fields, body = replies[0]
        assert 200 <= status < 500, (data[:120], status, body[:300])
        assert fields["Content-Type"] == "application/json"
        payload = json.loads(body.decode("utf-8"))
        if status >= 400:
            assert isinstance(payload["error"]["code"], str), payload
            assert payload["request_id"] == fields["X-Request-Id"]
        statuses[status] += 1
    assert {200, 400, 404, 408} <= set(statuses), statuses
    deadline = time.monotonic() + 5
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() <= baseline
    with urllib.request.urlopen(gateway.url + "/livez", timeout=5) as reply:
        assert json.loads(reply.read().decode("utf-8")) == {"live": True}
