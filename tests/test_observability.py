"""Observability stack: metric instruments and Prometheus rendering,
the instrumented service, the live ``/metrics`` endpoint under
concurrent load, structured access logging — and the parity
guarantees: ``/stats`` counts equal the ``/metrics`` samples they read,
and the gateway never changes a solve decision."""

import io
import json
import threading

import numpy as np
import pytest

from repro.durability import faults
from repro.service import (
    AccessLog,
    MetricsRegistry,
    MoRERService,
    Overloaded,
    ServiceClient,
    ServiceHTTPServer,
    ServiceMetrics,
    SolveRequest,
    Unavailable,
)
from repro.service.fixtures import demo_morer, demo_probes
from repro.service.observability import SERVICE_METRIC_SPECS


def parse_prometheus(text):
    """``{series_name_with_labels: float_value}`` from the text format."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


# -- instruments ------------------------------------------------------------


def test_counter_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("t_total", "help")
    counter.inc()
    counter.inc(2.5)
    assert counter.value() == pytest.approx(3.5)
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)
    # set_total adopts larger values but never moves backwards.
    counter.set_total(10)
    counter.set_total(4)
    assert counter.value() == 10


def test_counter_label_validation():
    registry = MetricsRegistry()
    counter = registry.counter("l_total", "help", ("kind",))
    counter.inc(kind="a")
    with pytest.raises(ValueError, match="expects labels"):
        counter.inc(wrong="a")
    with pytest.raises(ValueError, match="expects labels"):
        counter.inc()  # labelled family needs its labels
    assert counter.value(kind="a") == 1
    assert counter.value(kind="never-seen") == 0


def test_gauge_set_inc_dec_and_function():
    registry = MetricsRegistry()
    gauge = registry.gauge("g", "help")
    gauge.set(5)
    gauge.set(4)
    assert gauge.value() == 4
    assert "g 4" in registry.render().splitlines()


def test_histogram_cumulative_buckets_sum_count():
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds", "help", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0, 50.0):
        hist.observe(value)
    counts, total, count = hist.snapshot()
    assert counts == (1, 2, 3)  # cumulative: le=0.1, le=1, le=10
    assert count == 4
    assert total == pytest.approx(55.55)
    rendered = registry.render()
    samples = parse_prometheus(rendered)
    assert samples['h_seconds_bucket{le="0.1"}'] == 1
    assert samples['h_seconds_bucket{le="1"}'] == 2
    assert samples['h_seconds_bucket{le="10"}'] == 3
    assert samples['h_seconds_bucket{le="+Inf"}'] == 4
    assert samples["h_seconds_count"] == 4
    assert samples["h_seconds_sum"] == pytest.approx(55.55)
    assert "# TYPE h_seconds histogram" in rendered


def test_render_escapes_label_values():
    registry = MetricsRegistry()
    counter = registry.counter("e_total", "help", ("path",))
    counter.inc(path='we"ird\\path\nline')
    line = [
        ln for ln in registry.render().splitlines()
        if ln.startswith("e_total{")
    ][0]
    assert line == 'e_total{path="we\\"ird\\\\path\\nline"} 1'


def test_registry_rejects_duplicate_names():
    registry = MetricsRegistry()
    registry.counter("dup_total", "help")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("dup_total", "help")


def test_registry_runs_collect_callbacks_each_render():
    registry = MetricsRegistry()
    gauge = registry.gauge("pulled", "help")
    ticks = []

    def collect():
        ticks.append(1)
        gauge.set(len(ticks))

    registry.register_collect(collect)
    registry.render()
    registry.render()
    assert gauge.value() == 2
    # A failing collector must not break the scrape.
    registry.register_collect(lambda: 1 / 0)
    assert "pulled 3" in registry.render()


# -- ServiceMetrics ---------------------------------------------------------


def test_service_metrics_covers_every_spec():
    metrics = ServiceMetrics()
    registered = set(metrics.registry.names())
    spec_names = {spec["name"] for spec in SERVICE_METRIC_SPECS}
    assert registered == spec_names
    for spec in SERVICE_METRIC_SPECS:
        attribute = spec["name"][len("morer_"):]
        instrument = getattr(metrics, attribute)
        assert instrument.name == spec["name"]
        assert instrument.kind == spec["type"]


# -- AccessLog --------------------------------------------------------------


def test_access_log_writes_json_lines():
    buffer = io.StringIO()
    log = AccessLog(stream=buffer, level="info")
    log.info(endpoint="/solve", status=200, latency_ms=1.25)
    log.debug(message="hidden at info level")
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["level"] == "info"
    assert record["endpoint"] == "/solve"
    assert record["status"] == 200
    assert record["ts"] > 0


def test_access_log_levels():
    buffer = io.StringIO()
    log = AccessLog(stream=buffer, level="debug")
    log.debug(message="visible")
    assert "visible" in buffer.getvalue()
    silent = AccessLog(stream=io.StringIO(), level="off")
    assert not silent.enabled_for("info")
    with pytest.raises(ValueError, match="unknown access-log level"):
        AccessLog(level="verbose")


def test_access_log_owns_file_path(tmp_path):
    path = tmp_path / "access.jsonl"
    log = AccessLog(path=path)
    log.info(endpoint="/stats", status=200)
    log.close()
    record = json.loads(path.read_text().splitlines()[0])
    assert record["endpoint"] == "/stats"
    # Writes after close are swallowed, never raised.
    log.info(endpoint="/stats", status=200)


# -- instrumented service (in-process) ---------------------------------------


def test_service_instruments_solves_and_ticks():
    service = MoRERService(demo_morer(10), max_batch_size=4, max_wait_ms=5)
    try:
        metrics = service.metrics
        probes = demo_probes(4, seed=31)
        service.solve(SolveRequest(
            problem=probes[0].without_labels(), strategy="base"
        ))
        service.solve_batch([
            SolveRequest(problem=probe, strategy="cov")
            for probe in probes[1:]
        ])
        assert metrics.solves_total.value(strategy="base") == 1
        assert metrics.solves_total.value(strategy="cov") == 3
        ticks = metrics.scheduler_ticks_total.value()
        assert ticks >= 1
        assert metrics.scheduler_coalesced_requests_total.value() == 3
        _, __, tick_count = metrics.scheduler_tick_seconds.snapshot()
        assert tick_count == ticks
        _, size_sum, ___ = metrics.scheduler_batch_size.snapshot()
        assert size_sum == 3
        # Every cov solve produced exactly one decision sample.
        decisions = sum(
            metrics.solve_decisions_total.value(decision=d)
            for d in ("reuse", "retrain", "new_model")
        )
        assert decisions == 3
    finally:
        service.close()


def test_render_reports_pull_time_gauges():
    service = MoRERService(demo_morer(8))
    try:
        samples = parse_prometheus(service.metrics.render())
        assert samples["morer_repository_entries"] >= 1
        assert samples["morer_graph_problems"] == 8
        assert samples["morer_labels_spent"] > 0
        assert samples["morer_degraded"] == 0
        assert samples["morer_queue_depth"] == 0
    finally:
        service.close()


# -- live HTTP ---------------------------------------------------------------


@pytest.fixture
def gateway():
    service = MoRERService(demo_morer(10), max_batch_size=4, max_wait_ms=10)
    log_buffer = io.StringIO()
    server = ServiceHTTPServer(
        service, ("127.0.0.1", 0),
        access_log=AccessLog(stream=log_buffer, level="info"),
    )
    server.log_buffer = log_buffer
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_metrics_endpoint_under_concurrent_burst(gateway):
    client = ServiceClient(gateway.url, client_id="scraper")
    client.wait_ready(timeout=5)
    first = parse_prometheus(client.metrics())

    probes = demo_probes(6, seed=41)
    errors = []

    def one(probe):
        try:
            client.solve(probe, strategy="cov")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(probe,)) for probe in probes
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors

    second = parse_prometheus(client.metrics())
    # Counters are monotonic across scrapes.
    for name, value in first.items():
        if "_total" in name or name.endswith("_count"):
            assert second.get(name, 0.0) >= value, name
    # The burst is visible: 6 cov solves, >= 1 tick, coalescing ratio
    # consistent between the two series.
    cov = second['morer_solves_total{strategy="cov"}']
    assert cov - first.get('morer_solves_total{strategy="cov"}', 0.0) == 6
    ticks = second["morer_scheduler_ticks_total"]
    coalesced = second["morer_scheduler_coalesced_requests_total"]
    assert 1 <= ticks <= coalesced
    # Histogram invariants: +Inf bucket == count, bucket counts are
    # cumulative (non-decreasing in le), sum of tick sizes == requests.
    sizes = sorted(
        (float(name.split('le="')[1].rstrip('"}')), value)
        for name, value in second.items()
        if name.startswith('morer_scheduler_batch_size_bucket')
        and "+Inf" not in name
    )
    cumulative = [value for _, value in sizes]
    assert cumulative == sorted(cumulative)
    assert second[
        'morer_scheduler_batch_size_bucket{le="+Inf"}'
    ] == second["morer_scheduler_batch_size_count"] == ticks
    assert second["morer_scheduler_batch_size_sum"] == coalesced
    # Request latency histogram saw every HTTP request to /solve.
    assert second[
        'morer_http_request_seconds_count{endpoint="/solve"}'
    ] >= 6
    # Content type is the Prometheus exposition version.
    import urllib.request

    with urllib.request.urlopen(gateway.url + "/metrics", timeout=5) as r:
        assert r.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )


def _log_records(buffer, predicate, timeout=5.0):
    """Poll the access-log buffer: the line lands microseconds after
    the response is on the wire, so a just-returned client can race
    it."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        matches = [r for r in records if predicate(r)]
        if matches or time.monotonic() >= deadline:
            return matches, records
        time.sleep(0.01)


def test_access_log_carries_ids_and_batch_ids(gateway):
    client = ServiceClient(gateway.url, client_id="tenant-log")
    client.wait_ready(timeout=5)
    client.solve(demo_probes(1, seed=51)[0], strategy="cov")
    solve_records, records = _log_records(
        gateway.log_buffer, lambda r: r.get("endpoint") == "/solve"
    )
    assert solve_records, records
    record = solve_records[-1]
    assert record["client_id"] == "tenant-log"
    assert record["status"] == 200
    assert record["latency_ms"] > 0
    assert len(record["request_id"]) >= 8
    # The scheduler tick that served the cov solve is correlated.
    assert record["batch_id"] >= 1
    # Request ids are echoed back as a response header.
    import urllib.request

    request = urllib.request.Request(
        gateway.url + "/healthz", headers={"X-Request-Id": "trace-me-123"}
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        assert response.headers["X-Request-Id"] == "trace-me-123"
    traced, records = _log_records(
        gateway.log_buffer,
        lambda r: r.get("request_id") == "trace-me-123",
    )
    assert traced, records


def test_refused_requests_are_logged_and_counted(gateway):
    """A request the gateway refuses before routing it (one it cannot
    frame, or of a method other than GET and POST) gets its access-log
    line and its ``method="other"`` count, like any routed request."""
    import socket

    host, port = gateway.server_address[:2]
    for request in (b"GET /livez\r\n\r\n",
                    b"PUT /solve HTTP/1.1\r\nX-Request-Id: put-1\r\n\r\n"):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)
            while sock.recv(4096):
                pass
    # The line is written before the connection closes, so it is
    # already there once the socket reads empty.
    records = [json.loads(line)
               for line in gateway.log_buffer.getvalue().splitlines()]
    refused = [r for r in records if r.get("error") == "invalid_request"]
    assert [r["status"] for r in refused] == [400, 400], records
    assert refused[1]["method"] == "PUT"
    assert refused[1]["request_id"] == "put-1"
    assert gateway.service.metrics.http_requests_total.value(
        endpoint="other", method="other", status="400") == 2


def test_stdlib_lines_suppressed_at_info_level(gateway):
    client = ServiceClient(gateway.url)
    client.wait_ready(timeout=5)
    health, records = _log_records(
        gateway.log_buffer, lambda r: r.get("endpoint") == "/healthz"
    )
    assert health, records
    assert not any(r.get("source") == "stdlib" for r in records)


# -- parity ------------------------------------------------------------------


def test_instrumentation_and_limiting_do_not_change_decisions():
    """A run through the rate-limited, access-logged gateway must
    produce byte-identical solve decisions to an in-process run of the
    same admitted requests."""
    probes = demo_probes(6, seed=61)

    def run(instrumented):
        service = MoRERService(
            demo_morer(10), max_batch_size=1, max_wait_ms=0,
        )
        if instrumented:
            server = ServiceHTTPServer(
                service, ("127.0.0.1", 0),
                access_log=AccessLog(stream=io.StringIO(), level="debug"),
                rate_limit_rps=1000.0, rate_burst=1000.0,
            )
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            client = ServiceClient(server.url, client_id="parity")
            client.wait_ready(timeout=5)
        try:
            responses = []
            for probe in probes:
                if instrumented:
                    responses.append(client.solve(probe, strategy="cov"))
                else:
                    responses.append(
                        service.solve(
                            SolveRequest(problem=probe, strategy="cov")
                        )
                    )
            return responses
        finally:
            if instrumented:
                server.shutdown()
                server.server_close()
            service.close()

    instrumented = run(instrumented=True)
    in_process = run(instrumented=False)
    for a, b in zip(instrumented, in_process):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.cluster_id == b.cluster_id
        assert a.retrained == b.retrained
        assert a.new_model == b.new_model
        assert a.labels_spent == b.labels_spent
        assert a.coverage == pytest.approx(b.coverage)


#: Each ``/stats`` service count and the ``/metrics`` sample it reads.
STATS_SAMPLES = {
    "base_solves": 'morer_solves_total{strategy="base"}',
    "cov_solves": 'morer_solves_total{strategy="cov"}',
    "batches_dispatched": "morer_scheduler_ticks_total",
    "overload_rejections":
        'morer_queue_rejections_total{reason="overloaded"}',
    "wal_records": "morer_wal_appends_total",
    "wal_failures": "morer_wal_append_failures_total",
    "checkpoints": 'morer_checkpoints_total{outcome="ok"}',
    "checkpoint_failures": 'morer_checkpoints_total{outcome="failed"}',
    "unavailable_rejections":
        'morer_queue_rejections_total{reason="unavailable"}',
}


def test_stats_counts_equal_their_metrics_samples(tmp_path):
    """Every serving event is recorded once: each ``/stats`` count is
    the ``/metrics`` sample it names, in process and over HTTP. Counts
    that share a series differ, so a key reading the wrong label
    fails."""
    (tmp_path / "file").write_text("")
    service = MoRERService(
        demo_morer(10), max_batch_size=4, max_wait_ms=0,
        max_queue_depth=4, wal_dir=tmp_path / "wal",
        # Under a regular file: every scheduler checkpoint fails.
        checkpoint_store=tmp_path / "file" / "store", checkpoint_every=1,
    )
    server = ServiceHTTPServer(
        service, ("127.0.0.1", 0),
        access_log=AccessLog(stream=io.StringIO()),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    probes = demo_probes(12, seed=71)
    try:
        for probe in probes[:2]:
            service.solve(SolveRequest(
                problem=probe.without_labels(), strategy="base"
            ))
        service.save(tmp_path / "store")
        service.save(tmp_path / "store")
        responses = service.solve_batch([
            SolveRequest(problem=probe, strategy="cov")
            for probe in probes[2:6]
        ])
        # Admitted together, so the scheduler took them as one tick;
        # its failed checkpoint runs before the next tick.
        assert len({response.batch_id for response in responses}) == 1
        with pytest.raises(Overloaded):
            service.solve_batch([
                SolveRequest(problem=probe, strategy="cov")
                for probe in probes[6:11]
            ])
        faults.install("error:wal.pre_fsync")
        try:
            with pytest.raises(Unavailable):
                service.solve(SolveRequest(
                    problem=probes[11], strategy="cov"
                ))
        finally:
            faults.clear()
        for _ in range(2):
            with pytest.raises(Unavailable, match="degraded"):
                service.solve(SolveRequest(
                    problem=probes[11], strategy="cov"
                ))

        client = ServiceClient(server.url)
        views = [
            (service.stats().service, service.metrics.render()),
            (client.stats().service, client.metrics()),
        ]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    (local, _), (remote, _) = views
    assert remote == local
    for stats, text in views:
        samples = parse_prometheus(text)
        for key, name in STATS_SAMPLES.items():
            assert stats[key] == samples[name], key
    assert {key: local[key] for key in STATS_SAMPLES} == {
        "base_solves": 2, "cov_solves": 4, "batches_dispatched": 1,
        "overload_rejections": 1, "wal_records": 1, "wal_failures": 1,
        "checkpoints": 2, "checkpoint_failures": 1,
        "unavailable_rejections": 2,
    }
    assert not {"max_coalesced", "fits", "saves"} & set(local)
