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
