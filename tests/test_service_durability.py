"""Service-layer durability tests: degraded mode under injected WAL
failures, per-item solve_batch envelopes (in-process and over HTTP),
client retry policy, scheduler-driven checkpoints, and the CLI's
recover-on-startup path."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core import PERSISTENCE_FORMAT, MoRER
from repro.core.morer import UnsupportedFormatError
from repro.durability import faults, read_wal, recover
from repro.service import (
    InvalidRequest,
    MoRERService,
    Overloaded,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    SolveResponse,
    TransportError,
    Unavailable,
)
from repro.service.fixtures import demo_morer, demo_probes


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()


def _bad_probe():
    """A probe whose feature count violates the repository schema."""
    probe = demo_probes(1, seed=55)[0]
    data = probe.to_dict()
    data["features"] = [row + [0.5] for row in data["features"]]
    data["feature_names"] = None
    from repro.core import ERProblem

    return ERProblem.from_dict(data)


# -- degraded mode -----------------------------------------------------------------


def test_wal_failure_degrades_but_base_path_survives(tmp_path):
    service = MoRERService(demo_morer(10), wal_dir=tmp_path / "wal")
    probes = demo_probes(4, seed=11)
    service.solve(probes[0])                      # healthy cov solve
    faults.install("error:wal.pre_fsync")
    with pytest.raises(Unavailable):
        service.solve(probes[1])
    faults.clear()
    # Degraded sticks: later mutations are rejected at admission...
    with pytest.raises(Unavailable, match="degraded"):
        service.solve(probes[2])
    # ...read-only solves, stats and health keep answering.
    base = service.solve({
        "problem": probes[3].without_labels().to_dict(),
        "strategy": "base",
    })
    assert isinstance(base, SolveResponse) and base.predictions.size
    health = service.healthz()
    assert health["status"] == "degraded"
    assert health["ready"] is False and health["live"] is True
    assert health["wal"]["degraded_reason"]
    stats = service.stats()
    assert stats.service["degraded"] is True
    assert stats.service["unavailable_rejections"] >= 1
    assert stats.service["wal_failures"] == 1
    service.close()


def test_degraded_solve_batch_envelopes_keep_base_members(tmp_path):
    service = MoRERService(demo_morer(10), wal_dir=tmp_path / "wal")
    faults.install("error:wal.pre_append")
    probes = demo_probes(3, seed=12)
    with pytest.raises(Unavailable):
        service.solve(probes[0])
    faults.clear()
    outcomes = service.solve_batch_envelopes([
        {"problem": probes[1].to_dict(), "strategy": "cov"},
        {"problem": probes[2].without_labels().to_dict(),
         "strategy": "base"},
    ])
    assert isinstance(outcomes[0], Unavailable)
    assert isinstance(outcomes[1], SolveResponse)
    service.close()


def test_nan_cov_probe_is_rejected_before_the_wal(tmp_path):
    service = MoRERService(demo_morer(8), wal_dir=tmp_path / "wal")
    try:
        payload = demo_probes(1, seed=12)[0].to_dict()
        payload["features"][0][0] = float("nan")
        with pytest.raises(InvalidRequest, match="finite"):
            service.solve({"problem": payload, "strategy": "cov"})
        assert service.stats().service["wal_seq"] == 0
    finally:
        service.close()
    assert read_wal(tmp_path / "wal")[1].n_records == 0


def test_retraining_tick_appends_one_wal_record(tmp_path):
    """A tick is one ``solve_batch`` record, whatever it decided: no
    marker follows a retrain or a new model."""
    service = MoRERService(
        demo_morer(10), wal_dir=tmp_path / "wal", max_batch_size=1,
        max_wait_ms=0,
    )
    retrained = 0
    try:
        for probe in demo_probes(5, seed=5):
            before = service.stats().service["wal_seq"]
            response = service.solve(probe)
            retrained += response.retrained or response.new_model
            assert service.stats().service["wal_seq"] == before + 1
    finally:
        service.close()
    assert retrained >= 1
    records, _ = read_wal(tmp_path / "wal")
    assert [record["kind"] for record in records] == ["solve_batch"] * 5


def test_non_wal_service_never_degrades(tmp_path):
    service = MoRERService(demo_morer(8))
    health = service.healthz()
    assert health["status"] == "ok" and health["ready"] is True
    assert "wal" not in health
    assert service.stats().service["wal_enabled"] is False
    service.close()


# -- per-item envelopes ------------------------------------------------------------


def test_solve_batch_envelopes_isolate_a_poisoned_member(tmp_path):
    service = MoRERService(demo_morer(10))
    good = demo_probes(2, seed=13)
    outcomes = service.solve_batch_envelopes([
        good[0],
        _bad_probe(),
        good[1],
    ])
    assert isinstance(outcomes[0], SolveResponse)
    assert isinstance(outcomes[1], InvalidRequest)
    assert isinstance(outcomes[2], SolveResponse)
    service.close()


def test_solve_batch_envelopes_whole_call_conditions_still_raise():
    from repro.core import MoRERConfig

    unfitted = MoRERService(MoRER(MoRERConfig()))
    with pytest.raises(ServiceError):
        unfitted.solve_batch_envelopes([demo_probes(1)[0]])
    unfitted.close()
    service = MoRERService(demo_morer(8), max_queue_depth=2,
                           max_batch_size=1, max_wait_ms=0)
    # Admission of cov members stays all-or-nothing under overload: a
    # batch bigger than the whole queue can never be admitted, and no
    # prefix of it may start executing.
    probes = demo_probes(8, seed=14)
    try:
        with pytest.raises(Overloaded):
            service.solve_batch_envelopes(probes)
        assert service.stats().service["cov_solves"] == 0
    finally:
        service.close()


# -- HTTP envelopes + client -------------------------------------------------------


@pytest.fixture
def gateway():
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


def test_http_envelopes_round_trip_mixed_outcomes(gateway):
    client = ServiceClient(gateway.url)
    good = demo_probes(2, seed=15)
    outcomes = client.solve_batch(
        [good[0], _bad_probe(), good[1]], strategy="cov",
        return_errors=True,
    )
    assert isinstance(outcomes[0], SolveResponse)
    assert isinstance(outcomes[1], InvalidRequest)
    assert "features" in str(outcomes[1])
    assert isinstance(outcomes[2], SolveResponse)
    # Default contract: first failed member's typed error raises.
    with pytest.raises(InvalidRequest):
        client.solve_batch([good[0], _bad_probe()], strategy="base")


def test_livez_readyz_split(gateway):
    client = ServiceClient(gateway.url)
    assert client._request("GET", "/livez")["live"] is True
    ready = client._request("GET", "/readyz")
    assert ready["ready"] is True
    health = client.healthz()
    assert health["live"] is True and health["ready"] is True


def test_readyz_503_when_unfitted():
    from repro.core import MoRERConfig

    service = MoRERService(MoRER(MoRERConfig()))
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError):
            client._request("GET", "/readyz")
        # /livez still answers 200: the process is alive, just not ready.
        assert client._request("GET", "/livez")["live"] is True
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_client_retries_idempotent_calls(monkeypatch):
    client = ServiceClient("http://127.0.0.1:1", retries=3, backoff=0.0,
                           backoff_max=0.0)
    calls = {"n": 0}

    def flaky(method, path, payload=None):
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransportError("connection refused")
        return {"live": True}

    monkeypatch.setattr(client, "_request_once", flaky)
    assert client._request("GET", "/livez", idempotent=True)["live"]
    assert calls["n"] == 3


def test_client_never_retries_mutations(monkeypatch):
    client = ServiceClient("http://127.0.0.1:1", retries=3, backoff=0.0)
    calls = {"n": 0}

    def always_down(method, path, payload=None):
        calls["n"] += 1
        raise TransportError("connection refused")

    monkeypatch.setattr(client, "_request_once", always_down)
    with pytest.raises(TransportError):
        client.solve(demo_probes(1)[0], strategy="cov")
    assert calls["n"] == 1                      # cov: no retry
    calls["n"] = 0
    with pytest.raises(TransportError):
        client.fit(demo_probes(1))
    assert calls["n"] == 1                      # fit: no retry
    calls["n"] = 0
    with pytest.raises(TransportError):
        client.solve(demo_probes(1)[0], strategy="base")
    assert calls["n"] == 4                      # base: 1 + 3 retries


def test_client_retries_only_retryable_errors(monkeypatch):
    client = ServiceClient("http://127.0.0.1:1", retries=3, backoff=0.0)
    calls = {"n": 0}

    def invalid(method, path, payload=None):
        calls["n"] += 1
        raise InvalidRequest("bad payload")

    monkeypatch.setattr(client, "_request_once", invalid)
    with pytest.raises(InvalidRequest):
        client._request("GET", "/stats", idempotent=True)
    assert calls["n"] == 1


# -- scheduler checkpoints ---------------------------------------------------------


def test_checkpoint_every_snapshots_and_truncates(tmp_path):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(
        demo_morer(10), wal_dir=wal_dir, checkpoint_store=store,
        checkpoint_every=2, max_wait_ms=0,
    )
    for probe in demo_probes(5, seed=16):
        service.solve(probe)
    service.close()
    assert service.stats().service["checkpoints"] >= 1
    assert store.is_dir()
    manifest = json.loads((store / "durability.json").read_text())
    assert manifest["wal_seq"] >= 2
    # The WAL tail holds only what the last checkpoint didn't absorb.
    _, report = read_wal(wal_dir)
    assert report.n_records <= 5


def test_checkpoint_every_requires_store():
    with pytest.raises(InvalidRequest, match="checkpoint_store"):
        MoRERService(demo_morer(6), checkpoint_every=3)


def test_repeated_checkpoint_failures_surface_and_degrade(
    tmp_path, monkeypatch, capsys
):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(
        demo_morer(10), wal_dir=wal_dir, checkpoint_store=store,
        checkpoint_every=1, max_wait_ms=0,
    )

    def unsavable(path, extras=None):
        raise OSError("disk full")

    monkeypatch.setattr(service._morer, "save", unsavable)
    # Sequential blocking solves: one tick each, one checkpoint attempt
    # each; the third consecutive failure trips degraded mode.
    for probe in demo_probes(service.CHECKPOINT_FAILURE_LIMIT, seed=31):
        service.solve(probe)
    service.close()          # drains the scheduler: all attempts done
    stats = service.stats().service
    assert stats["checkpoint_failures"] >= service.CHECKPOINT_FAILURE_LIMIT
    assert "disk full" in stats["last_checkpoint_error"]
    assert stats["degraded"] is True
    assert "checkpoint" in service._degraded_reason
    assert "disk full" in capsys.readouterr().err


def test_scheduler_checkpoint_with_a_failed_wal_truncation_fails(
    tmp_path, monkeypatch, capsys
):
    """A scheduler checkpoint whose snapshot lands but whose WAL
    truncation fails is a failed checkpoint: ``/stats`` counts it, keeps
    its error beside ``degraded``, and the scheduler logs it."""
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(
        demo_morer(10), wal_dir=wal_dir, checkpoint_store=store,
        checkpoint_every=1, max_wait_ms=0,
    )

    def full_disk(seq):
        raise OSError("disk full")

    monkeypatch.setattr(service._wal, "checkpoint", full_disk)
    service.solve(demo_probes(1, seed=32)[0])
    service.close()          # drains the scheduler: the attempt is done
    stats = service.stats().service
    assert (stats["checkpoints"], stats["checkpoint_failures"]) == (0, 1)
    assert stats["degraded"] is True
    assert stats["last_checkpoint_error"] == "OSError: disk full"
    assert (store / "durability.json").is_file()   # the snapshot landed
    assert "disk full" in capsys.readouterr().err


def test_failed_explicit_save_counts_as_a_failed_checkpoint(tmp_path):
    """An explicit save (``POST /save``) whose snapshot write fails
    raises and is recorded like a scheduler checkpoint: one failure and
    its error, cleared by the next good save. Neither degrades the
    service."""
    (tmp_path / "file").write_text("")
    service = MoRERService(demo_morer(10), wal_dir=tmp_path / "wal")
    with pytest.raises(OSError) as raised:
        service.save(tmp_path / "file" / "store")
    stats = service.stats().service
    assert (stats["checkpoints"], stats["checkpoint_failures"]) == (0, 1)
    error = raised.value
    assert stats["last_checkpoint_error"] == f"{type(error).__name__}: {error}"
    service.save(tmp_path / "store")
    stats = service.stats().service
    assert (stats["checkpoints"], stats["checkpoint_failures"]) == (1, 1)
    assert stats["last_checkpoint_error"] is None
    assert stats["degraded"] is False
    service.close()


# -- CLI recovery ------------------------------------------------------------------


def test_cli_serve_flags_parse():
    args = build_parser().parse_args([
        "serve", "--store", "s", "--wal-dir", "w", "--fsync", "interval",
        "--fsync-interval-ms", "20", "--checkpoint-every", "64",
    ])
    assert args.wal_dir == "w" and args.fsync == "interval"
    assert args.fsync_interval_ms == 20.0
    assert args.checkpoint_every == 64
    assert args.force_bootstrap is False
    args = build_parser().parse_args([
        "serve", "--store", "s", "--wal-dir", "w", "--demo",
        "--force-bootstrap",
    ])
    assert args.force_bootstrap is True


def test_cli_wal_dir_requires_store(tmp_path):
    from repro.cli import _serve

    args = build_parser().parse_args(
        ["serve", "--demo", "4", "--wal-dir", str(tmp_path / "wal")]
    )
    with pytest.raises(SystemExit, match="requires --store"):
        _serve(args)


def _stranded_wal(tmp_path, n_records=2):
    """A WAL holding acked solve records that cannot replay onto a
    fitted instance (the fit rotated out at a past checkpoint) next to
    a missing/unloadable store — the post-checkpoint disaster state."""
    from repro.core import MoRERConfig
    from repro.durability import WriteAheadLog

    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    with WriteAheadLog(wal_dir, config=MoRERConfig().to_dict()) as wal:
        for probe in demo_probes(n_records, seed=23):
            wal.append({
                "kind": "solve_batch",
                "problems": [probe.to_dict()],
            })
    return store, wal_dir


def test_wal_header_with_removed_config_fields_names_them(tmp_path):
    """A WAL header written while the config still held the serving
    settings and the warm-recluster knobs fails, with no snapshot to
    load, by naming them; ``repro serve`` neither bootstraps over it
    nor changes it."""
    from repro.cli import _serve
    from repro.core import MoRERConfig
    from repro.durability import WriteAheadLog

    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    config = dict(MoRERConfig().to_dict(), full_recluster_every=50,
                  service_max_batch_size=16)
    with WriteAheadLog(wal_dir, config=config) as wal:
        wal.append({"kind": "solve_batch",
                    "problems": [demo_probes(1, seed=23)[0].to_dict()]})
    named = (
        "unknown MoRERConfig field.*'full_recluster_every', "
        "'service_max_batch_size'"
    )
    with pytest.raises(ValueError, match=named):
        recover(wal_dir, store=store)
    args = build_parser().parse_args([
        "serve", "--store", str(store), "--wal-dir", str(wal_dir),
        "--demo", "4",
    ])
    with pytest.raises(SystemExit, match="cannot recover: " + named):
        _serve(args)
    assert not store.exists()
    _, report = read_wal(wal_dir)
    assert report.n_records == 1


def test_cli_refuses_demo_bootstrap_over_unreplayable_wal(tmp_path):
    from repro.cli import _serve

    store, wal_dir = _stranded_wal(tmp_path)
    args = build_parser().parse_args([
        "serve", "--store", str(store), "--wal-dir", str(wal_dir),
        "--demo", "4",
    ])
    # Bootstrapping would checkpoint over the stranded records and
    # truncate them away — refuse unless explicitly forced.
    with pytest.raises(SystemExit, match="refusing --demo bootstrap"):
        _serve(args)
    _, report = read_wal(wal_dir)
    assert report.n_records == 2      # nothing was discarded


def test_cli_without_demo_reports_stranded_wal(tmp_path):
    from repro.cli import _serve

    store, wal_dir = _stranded_wal(tmp_path)
    args = build_parser().parse_args([
        "serve", "--store", str(store), "--wal-dir", str(wal_dir),
    ])
    with pytest.raises(SystemExit, match="cannot recover"):
        _serve(args)
    _, report = read_wal(wal_dir)
    assert report.n_records == 2


def test_cli_force_bootstrap_discards_deliberately(tmp_path, monkeypatch):
    from repro.cli import _serve

    store, wal_dir = _stranded_wal(tmp_path)
    served = {}

    class _FakeServer:
        def __init__(self, svc, address):
            served["service"] = svc
            self.url = "fake"

        def serve_forever(self):
            raise KeyboardInterrupt

        def shutdown(self):
            pass

        def server_close(self):
            pass

    monkeypatch.setattr("repro.service.ServiceHTTPServer", _FakeServer)
    args = build_parser().parse_args([
        "serve", "--store", str(store), "--wal-dir", str(wal_dir),
        "--demo", "4", "--force-bootstrap",
    ])
    _serve(args)
    assert served["service"].morer.repository is not None
    assert store.is_dir()             # bootstrap checkpointed the store
    _, report = read_wal(wal_dir)
    assert report.n_records == 0      # the stranded records are gone


def test_cli_serve_closes_the_service_when_sigint_lands_on_startup(
        tmp_path, monkeypatch):
    """A SIGINT that arrives while ``_serve`` prints its serving line
    (as soon as a supervisor reads it) still closes the gateway and the
    service — the scheduler drains and the WAL takes its final fsync —
    and ``_serve`` returns instead of waiting for a ``serve_forever``
    that never started."""
    import builtins

    from repro import cli

    services = []

    class _Recorded(MoRERService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            services.append(self)

    def interrupted_print(*args, **kwargs):
        if args and str(args[0]).startswith("serving "):
            raise KeyboardInterrupt
        builtins.print(*args, **kwargs)

    monkeypatch.setattr("repro.service.MoRERService", _Recorded)
    monkeypatch.setattr(cli, "print", interrupted_print, raising=False)
    args = build_parser().parse_args([
        "serve", "--demo", "4", "--port", "0",
        "--store", str(tmp_path / "store"),
        "--wal-dir", str(tmp_path / "wal"),
    ])
    outcome = {}

    def run():
        try:
            outcome["server"] = cli._serve(args)
        except KeyboardInterrupt as exc:
            outcome["escaped"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "_serve hung after the start-up SIGINT"
    assert "escaped" not in outcome, "the SIGINT escaped _serve"
    (service,) = services
    assert service._closed
    assert not service._scheduler.is_alive()
    assert service._wal._fh is None  # closed, after its final fsync
    assert outcome["server"].socket.fileno() == -1


#: Store formats this build refuses: an unknown one, format 4 (the
#: last one with per-edge rows in ``graph.npz`` and per-tree model
#: dicts), format 5 (the last one with timings in ``morer.json``) and
#: format 6 (the last one with serving settings in the config).
_UNSUPPORTED_FORMATS = (999, 4, 5, 6)


def _unsupported_store(tmp_path):
    """A checkpointed 8-problem store (with a ``.prev`` generation and
    an empty WAL); :func:`_name_format` makes it unsupported."""
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(demo_morer(8), wal_dir=wal_dir)
    service.save(store)
    service.solve(demo_probes(1, seed=3)[0])
    service.save(store)
    service.close()
    return store, wal_dir


def _name_format(store, fmt):
    """Make the store's live ``morer.json`` name format ``fmt``."""
    manifest = store / "morer.json"
    state = json.loads(manifest.read_text())
    state["format"] = fmt
    manifest.write_text(json.dumps(state))


def _store_digest(tmp_path):
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("store*/**/*")):
        if path.is_file():
            digest.update(str(path.relative_to(tmp_path)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_recover_stops_on_an_unsupported_store_format(tmp_path):
    """An intact store in another format is not damage: recovery
    neither falls back to ``.prev`` nor starts an unfitted instance."""
    store, wal_dir = _unsupported_store(tmp_path)
    for fmt in _UNSUPPORTED_FORMATS:
        _name_format(store, fmt)
        before = _store_digest(tmp_path)
        with pytest.raises(
            UnsupportedFormatError,
            match=f"format {fmt} .*reads format {PERSISTENCE_FORMAT}",
        ):
            recover(wal_dir, store=store)
        assert _store_digest(tmp_path) == before


def test_cli_demo_never_bootstraps_over_an_unsupported_store(
        tmp_path, monkeypatch):
    from repro.cli import _serve

    class _NoServer:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the gateway must not start")

    store, wal_dir = _unsupported_store(tmp_path)
    monkeypatch.setattr("repro.service.ServiceHTTPServer", _NoServer)
    args = build_parser().parse_args([
        "serve", "--demo", "4", "--store", str(store),
        "--wal-dir", str(wal_dir),
    ])
    for fmt in _UNSUPPORTED_FORMATS:
        _name_format(store, fmt)
        before = _store_digest(tmp_path)
        with pytest.raises(
            SystemExit,
            match=f"format {fmt} .*reads format {PERSISTENCE_FORMAT}",
        ):
            _serve(args)
        assert _store_digest(tmp_path) == before


def test_wal_of_another_format_stops_recovery_untouched(
        tmp_path, monkeypatch):
    """A WAL written under another ``WAL_FORMAT`` holds acked records,
    not a torn tail: recovery, a reopen for append, the WAL inspector
    and ``repro serve`` each stop on it by name, and every WAL file
    stays as it was."""
    from repro.cli import _serve
    from repro.durability import WriteAheadLog
    from repro.durability.wal import _main as wal_main

    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(demo_morer(8), wal_dir=wal_dir)
    service.save(store)
    for probe in demo_probes(3, seed=29):
        service.solve(probe)
    service.close()

    def wal_bytes():
        return {path.name: path.read_bytes()
                for path in sorted(wal_dir.iterdir())}

    before = wal_bytes()
    monkeypatch.setattr("repro.durability.wal.WAL_FORMAT", 2)
    named = "unsupported WAL format 1 .*reads WAL format 2"
    with pytest.raises(UnsupportedFormatError, match=named):
        recover(wal_dir, store=store)
    with pytest.raises(UnsupportedFormatError, match=named):
        WriteAheadLog(wal_dir)
    with pytest.raises(SystemExit, match=named):
        wal_main([str(wal_dir)])
    args = build_parser().parse_args([
        "serve", "--store", str(store), "--wal-dir", str(wal_dir),
    ])
    with pytest.raises(SystemExit, match="cannot recover: " + named):
        _serve(args)
    assert wal_bytes() == before
    monkeypatch.undo()
    _, report = recover(wal_dir, store=store)
    assert report.n_replayed == 3


def test_cli_recovery_replays_and_checkpoints(tmp_path, monkeypatch):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    live = demo_morer(10)
    service = MoRERService(live, wal_dir=wal_dir)
    service.save(store)
    for probe in demo_probes(3, seed=17):
        service.solve(probe)
    service.close()                      # crash-equivalent: WAL has a tail

    served = {}

    class _FakeServer:
        def __init__(self, svc, address):
            served["service"] = svc
            self.url = "fake"

        def serve_forever(self):
            raise KeyboardInterrupt

        def shutdown(self):
            pass

        def server_close(self):
            pass

    import repro.cli as cli_mod

    monkeypatch.setattr(
        "repro.service.ServiceHTTPServer", _FakeServer
    )
    args = build_parser().parse_args([
        "serve", "--store", str(store), "--wal-dir", str(wal_dir),
    ])
    cli_mod._serve(args)
    recovered = served["service"].morer
    assert recovered.problem_graph.version == live.problem_graph.version
    assert (
        recovered._rng.bit_generator.state == live._rng.bit_generator.state
    )
    # Startup checkpointed the replayed state: the store now absorbs
    # the tail and the WAL is empty again.
    restored = MoRER.load(store)
    assert restored.problem_graph.version == live.problem_graph.version
    _, report = read_wal(wal_dir)
    assert report.n_records == 0


_RECOVER_THEN_RETRAIN = """
import sys

import numpy

if "numpy.ma" in sys.modules:
    print("numpy.ma loads with numpy")
    sys.exit(0)
from repro.core import MoRER, make_distribution_test
from repro.durability import recover
from repro.service import MoRERService
from tests.conftest import make_regime_problems

store, wal_dir = sys.argv[1:]
morer, _ = recover(wal_dir, store)
stream = make_regime_problems(24, seed=4, n_regimes=8, prefix="P")
with MoRERService(morer) as service:
    responses = [
        response
        for start in range(0, len(stream), 4)
        for response in service.solve_batch(stream[start:start + 4])
    ]
MoRER(classifier="logistic_regression", model_generation="supervised",
      random_state=5).fit(make_regime_problems(12, seed=5, prefix="S"))
rng = numpy.random.default_rng(6)
make_distribution_test("wd").problem_similarity(
    rng.random((40, 3)), rng.random((30, 3))
)
print(sum(response.retrained for response in responses),
      "numpy.ma" in sys.modules)
"""


def test_serving_never_imports_numpy_ma(tmp_path):
    """A recovered store serving ``cov`` ticks, retrains included, then
    a supervised ``logistic_regression`` fit and a raw Wasserstein
    similarity never load ``numpy.ma``: counting distinct values with
    ``np.unique`` and no ``return_*`` flag would import it (NumPy 2.4
    asks ``np.ma.is_masked``), and every fresh server would pay for its
    import in time and memory."""
    root = Path(__file__).resolve().parents[1]
    from tests.conftest import make_regime_problems

    MoRER(selection="cov", random_state=3).fit(
        make_regime_problems(48, seed=3, prefix="F")
    ).save(tmp_path / "store")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    out = subprocess.run(
        [sys.executable, "-c", _RECOVER_THEN_RETRAIN,
         str(tmp_path / "store"), str(tmp_path / "wal")],
        env=env, cwd=root, check=True, capture_output=True, text=True,
        timeout=300,
    ).stdout.split()
    if out[0] == "numpy.ma":
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    retrains, loaded = int(out[0]), out[1]
    assert retrains >= 1
    assert loaded == "False"
