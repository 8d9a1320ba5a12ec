"""Durability-layer tests: WAL framing and torn-tail tolerance, atomic
snapshot swaps under injected crashes at every registered kill point,
and full recovery equivalence (snapshot + WAL replay == the process
that never crashed)."""

import json
import os
import struct

import numpy as np
import pytest

from repro.durability import (
    DURABILITY_MANIFEST,
    InjectedFault,
    KILL_POINTS,
    WALError,
    WriteAheadLog,
    atomic_directory,
    load_snapshot,
    read_wal,
    recover,
    snapshot_candidates,
)
from repro.durability import faults
from repro.durability.faults import FaultPlan
from repro.core.morer import MoRER
from repro.service import MoRERService, Unavailable
from repro.service.fixtures import demo_morer, demo_probes


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()


def _append_n(wal, n, start=0):
    return [
        wal.append({"kind": "solve_batch", "problems": [], "i": start + i})
        for i in range(n)
    ]


# -- WAL framing -------------------------------------------------------------------


def test_wal_round_trip(tmp_path):
    with WriteAheadLog(tmp_path / "wal", config={"alpha": 1}) as wal:
        seqs = _append_n(wal, 5)
    assert seqs == [1, 2, 3, 4, 5]
    records, report = read_wal(tmp_path / "wal")
    assert [r["seq"] for r in records] == seqs
    assert report.n_records == 5
    assert report.last_seq == 5
    assert not report.torn
    assert report.config == {"alpha": 1}


def test_wal_reopen_adopts_seq_and_continues(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        _append_n(wal, 3)
    with WriteAheadLog(tmp_path / "wal") as wal:
        assert wal.seq == 3
        assert wal.append({"kind": "epoch", "event": "x"}) == 4
    records, report = read_wal(tmp_path / "wal")
    assert report.last_seq == 4 and report.n_records == 4


def test_wal_rejects_unknown_policy(tmp_path):
    with pytest.raises(WALError, match="fsync policy"):
        WriteAheadLog(tmp_path / "wal", fsync_policy="sometimes")


@pytest.mark.parametrize("policy", ["always", "interval", "off"])
def test_wal_policies_all_readable(tmp_path, policy):
    with WriteAheadLog(tmp_path / "wal", fsync_policy=policy,
                       fsync_interval_ms=5.0) as wal:
        _append_n(wal, 4)
    _, report = read_wal(tmp_path / "wal")
    assert report.n_records == 4 and not report.torn


def test_wal_checkpoint_truncates_segments(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    _append_n(wal, 6)
    wal.checkpoint(wal.seq)
    try:
        segments = sorted(p.name for p in (tmp_path / "wal").iterdir())
        assert segments == ["wal-00000002.log"]
        records, report = read_wal(tmp_path / "wal")
        assert records == [] and not report.torn
        # seq survives rotation: the next append continues the stream.
        assert wal.append({"kind": "epoch", "event": "x"}) == 7
        with pytest.raises(WALError, match="past the last append"):
            wal.checkpoint(99)
    finally:
        wal.close()


def test_wal_reopen_after_checkpoint_preserves_seq(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    _append_n(wal, 5)
    wal.checkpoint(wal.seq)
    wal.close()
    # The log is now a single header-only segment; numbering must come
    # from its base_seq — restarting at 0 would hand post-restart
    # appends seqs the snapshot already absorbed, and recovery would
    # silently skip them.
    with WriteAheadLog(tmp_path / "wal") as wal:
        assert wal.seq == 5
        assert wal.append({"kind": "epoch", "event": "x"}) == 6
    _, report = read_wal(tmp_path / "wal")
    assert report.base_seq == 5 and report.last_seq == 6


# -- torn / corrupt tails ----------------------------------------------------------


def _only_segment(wal_dir):
    segments = sorted(wal_dir.iterdir())
    assert len(segments) == 1
    return segments[0]


def test_wal_torn_tail_is_dropped_and_repaired(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        _append_n(wal, 4)
    segment = _only_segment(tmp_path / "wal")
    size = segment.stat().st_size
    with open(segment, "r+b") as fh:
        fh.truncate(size - 7)  # tear the final record mid-payload
    records, report = read_wal(tmp_path / "wal")
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert report.torn and "torn" in report.reason
    assert report.dropped_bytes > 0
    # Reopening truncates the torn tail and appends cleanly after it.
    with WriteAheadLog(tmp_path / "wal") as wal:
        assert wal.seq == 3
        assert wal.repaired is not None
        assert wal.append({"kind": "epoch", "event": "x"}) == 4
    records, report = read_wal(tmp_path / "wal")
    assert not report.torn and report.last_seq == 4


def test_wal_bit_flip_stops_at_last_valid_record(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        _append_n(wal, 4)
    segment = _only_segment(tmp_path / "wal")
    data = bytearray(segment.read_bytes())
    data[-3] ^= 0xFF  # flip a byte inside the last record's payload
    segment.write_bytes(bytes(data))
    records, report = read_wal(tmp_path / "wal")
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert report.torn and "checksum" in report.reason


def test_wal_implausible_length_is_corruption(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        _append_n(wal, 2)
    segment = _only_segment(tmp_path / "wal")
    with open(segment, "ab", buffering=0) as fh:
        fh.write(struct.pack("<II", 2**31, 0))
    records, report = read_wal(tmp_path / "wal")
    assert [r["seq"] for r in records] == [1, 2]
    assert report.torn and "implausible" in report.reason


def test_wal_damaged_early_segment_drops_later_ones(tmp_path):
    # Two segments (checkpoints normally delete old ones, so stage the
    # second by hand), then damage the first: nothing after the tear —
    # including the whole later segment — can be trusted.
    with WriteAheadLog(tmp_path / "wal") as wal:
        _append_n(wal, 3)
    with WriteAheadLog(tmp_path / "other") as wal:
        _append_n(wal, 2)
    first = _only_segment(tmp_path / "wal")
    (tmp_path / "wal" / "wal-00000002.log").write_bytes(
        _only_segment(tmp_path / "other").read_bytes()
    )
    with open(first, "r+b") as fh:
        fh.truncate(first.stat().st_size - 5)
    records, report = read_wal(tmp_path / "wal")
    assert [r["seq"] for r in records] == [1, 2]
    assert report.torn and report.dropped_segments == 1
    assert report.dropped_bytes > 0


def test_wal_torn_write_fault_matches_real_tear(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    _append_n(wal, 2)
    faults.install("torn-error:wal.mid_record:10")
    with pytest.raises(InjectedFault):
        wal.append({"kind": "solve_batch", "problems": []})
    faults.clear()
    # The seq never advanced past the tear; a reopen repairs the tail.
    assert wal.seq == 2
    wal.close()
    with WriteAheadLog(tmp_path / "wal") as reopened:
        assert reopened.seq == 2
        assert reopened.repaired is not None
    _, report = read_wal(tmp_path / "wal")
    assert report.n_records == 2 and not report.torn


# -- fault plan grammar ------------------------------------------------------------


def test_fault_plan_grammar():
    plan = FaultPlan.parse("error:wal.pre_append@3")
    assert (plan.mode, plan.site, plan.hit) == ("error", "wal.pre_append", 3)
    plan = FaultPlan.parse("torn:wal.mid_record:17")
    assert plan.arg == 17
    with pytest.raises(ValueError, match="unknown kill point"):
        FaultPlan.parse("error:wal.nope")
    with pytest.raises(ValueError, match="unknown fault mode"):
        FaultPlan.parse("explode:wal.pre_append")
    with pytest.raises(ValueError, match="torn faults"):
        FaultPlan.parse("torn:wal.pre_append")


def test_every_kill_point_is_instrumented():
    """Each registered site must actually appear in durability source —
    a site armed in a test but never called would silently pass."""
    import repro.durability.atomic as atomic_mod
    import repro.durability.wal as wal_mod
    import repro.core.morer as morer_mod
    import inspect

    source = "".join(
        inspect.getsource(mod) for mod in (atomic_mod, wal_mod, morer_mod)
    )
    for site in KILL_POINTS:
        assert f'"{site}"' in source, f"kill point {site} not instrumented"


def test_hit_counted_fault_fires_on_nth_hit(tmp_path):
    faults.install("error:wal.pre_append@3")
    with WriteAheadLog(tmp_path / "wal") as wal:
        _append_n(wal, 2)
        with pytest.raises(InjectedFault):
            wal.append({"kind": "epoch", "event": "x"})
        assert wal.seq == 2


def test_write_all_loops_on_short_writes():
    class _DribbleFile:
        def __init__(self):
            self.chunks = []

        def write(self, data):
            # A raw write(2) may land fewer bytes than asked; one byte
            # per call is the worst case.
            self.chunks.append(bytes(data[:1]))
            return 1

    fh = _DribbleFile()
    faults.write_all(fh, b"abcdef")
    assert b"".join(fh.chunks) == b"abcdef"


def test_write_all_rejects_none_return():
    class _NoneFile:
        def write(self, data):
            return None

    with pytest.raises(OSError):
        faults.write_all(_NoneFile(), b"abc")


# -- atomic snapshot swaps ---------------------------------------------------------


def _write_tree(tmp):
    (tmp / "manifest.json").write_text(json.dumps({"ok": True}))


def test_atomic_directory_swap_and_prev_generation(tmp_path):
    target = tmp_path / "store"
    with atomic_directory(target) as tmp:
        (tmp / "gen.txt").write_text("1")
    assert (target / "gen.txt").read_text() == "1"
    with atomic_directory(target) as tmp:
        (tmp / "gen.txt").write_text("2")
    assert (target / "gen.txt").read_text() == "2"
    prev = tmp_path / "store.prev"
    assert (prev / "gen.txt").read_text() == "1"
    assert snapshot_candidates(target)[2] == prev


def test_atomic_directory_exception_leaves_target_untouched(tmp_path):
    target = tmp_path / "store"
    with atomic_directory(target) as tmp:
        (tmp / "gen.txt").write_text("1")
    with pytest.raises(RuntimeError, match="boom"):
        with atomic_directory(target) as tmp:
            (tmp / "gen.txt").write_text("2")
            raise RuntimeError("boom")
    assert (target / "gen.txt").read_text() == "1"
    assert not list(tmp_path.glob(".store.tmp-*"))


@pytest.mark.parametrize("site", [
    "snapshot.pre_commit", "snapshot.mid_rename",
])
def test_atomic_swap_crash_windows_keep_a_loadable_candidate(
    tmp_path, site
):
    target = tmp_path / "store"
    with atomic_directory(target) as tmp:
        (tmp / "gen.txt").write_text("1")
    faults.install(f"error:{site}")
    with pytest.raises(InjectedFault):
        with atomic_directory(target) as tmp:
            (tmp / "gen.txt").write_text("2")
    faults.clear()
    # At least one candidate holds a complete generation; the staged
    # .new (complete by construction) wins over .prev when present.
    readable = [
        candidate / "gen.txt"
        for candidate in snapshot_candidates(target)
        if (candidate / "gen.txt").is_file()
    ]
    assert readable, f"no loadable snapshot candidate after {site}"
    contents = {path.read_text() for path in readable}
    assert "2" in contents or "1" in contents
    if site == "snapshot.pre_commit":
        # Swap never started: the live target is still generation 1.
        assert (target / "gen.txt").read_text() == "1"


def test_morer_save_mid_write_crash_keeps_previous_snapshot(tmp_path):
    morer = demo_morer(8)
    store = tmp_path / "store"
    morer.save(store)
    before = MoRER.load(store).problem_graph.version
    probe = demo_probes(1)[0]
    morer.solve(probe, strategy="cov")
    faults.install("error:snapshot.mid_write")
    with pytest.raises(InjectedFault):
        morer.save(store)
    faults.clear()
    # The half-written tmp tree is gone, the old generation loads.
    loaded, used = load_snapshot(store)
    assert loaded is not None and used == store
    assert loaded.problem_graph.version == before
    # The next save succeeds and reclaims any debris.
    morer.save(store)
    assert MoRER.load(store).problem_graph.version > before


def test_morer_save_embeds_extras_inside_swap(tmp_path):
    morer = demo_morer(6)
    store = tmp_path / "store"
    morer.save(store, extras={DURABILITY_MANIFEST: json.dumps(
        {"wal_seq": 42}
    )})
    manifest = json.loads((store / DURABILITY_MANIFEST).read_text())
    assert manifest["wal_seq"] == 42


# -- recovery ----------------------------------------------------------------------


def _solve_all(morer_or_service, probes):
    return [
        np.asarray(morer_or_service.solve(p, strategy="cov").predictions)
        for p in probes
    ]


def test_recovery_is_decision_identical_to_uncrashed_twin(tmp_path):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    live = demo_morer(12)
    service = MoRERService(live, wal_dir=wal_dir)
    service.save(store)                       # checkpoint at seq 0
    probes = demo_probes(6, seed=7)
    for probe in probes:
        service.solve(probe)
    # Crash without saving: abandon the service (WAL is fsynced per
    # record), then rebuild from snapshot + WAL tail.
    recovered, report = recover(wal_dir, store=store)
    assert report.n_replayed > 0 and not report.replay_errors
    assert recovered.problem_graph.version == live.problem_graph.version
    assert (
        recovered._rng.bit_generator.state == live._rng.bit_generator.state
    )
    assert recovered.total_labels_spent() == live.total_labels_spent()
    # The twin keeps making the *same* decisions afterwards.
    next_probes = demo_probes(3, seed=99)
    for mine, twins in zip(
        _solve_all(live, next_probes), _solve_all(recovered, next_probes)
    ):
        assert np.array_equal(mine, twins)
    service.close()


def _frame_offsets(segment):
    """``(offset, record)`` for every frame in one segment file."""
    data = segment.read_bytes()
    offsets, off = [], 0
    while off < len(data):
        length, _crc = struct.unpack_from("<II", data, off)
        payload = data[off + 8:off + 8 + length]
        offsets.append((off, json.loads(payload.decode("utf-8"))))
        off += 8 + length
    return offsets


def test_recovery_tolerates_torn_tail_and_drops_only_the_tear(tmp_path):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    live = demo_morer(12)
    service = MoRERService(live, wal_dir=wal_dir)
    service.save(store)
    probes = demo_probes(5, seed=3)
    for probe in probes:
        service.solve(probe)
    service.close()
    # Tear the *last solve record* mid-payload.
    segment = sorted(wal_dir.iterdir())[-1]
    solve_offsets = [
        off for off, record in _frame_offsets(segment)
        if record.get("kind") == "solve_batch"
    ]
    assert len(solve_offsets) == 5
    with open(segment, "r+b") as fh:
        fh.truncate(solve_offsets[-1] + 12)
    recovered, report = recover(wal_dir, store=store)
    assert report.wal_report.torn
    assert report.n_replayed == 4          # the torn 5th solve is gone
    # Identical to a twin that only ever saw the surviving records.
    partial = demo_morer(12)
    twin_service = MoRERService(partial)
    for probe in probes[:4]:
        twin_service.solve(probe)
    twin_service.close()
    assert recovered.problem_graph.version == partial.problem_graph.version
    assert (
        recovered._rng.bit_generator.state
        == partial._rng.bit_generator.state
    )
    # And strictly behind the never-torn live process (which saw 5).
    assert live.problem_graph.version > recovered.problem_graph.version


def test_recovery_skips_epoch_records_of_older_builds(tmp_path):
    """Earlier builds appended an ``epoch`` record after each tick that
    retrained; a segment holding one still recovers decision-identically."""
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    live = demo_morer(12)
    service = MoRERService(live, wal_dir=wal_dir)
    service.save(store)                       # checkpoint at seq 0
    responses = [service.solve(probe) for probe in demo_probes(6, seed=7)]
    service.close()
    records, report = read_wal(wal_dir)
    old_dir = tmp_path / "old_wal"
    with WriteAheadLog(old_dir, config=report.config) as old:
        for record, response in zip(records, responses):
            old.append({k: v for k, v in record.items() if k != "seq"})
            if response.retrained or response.new_model:
                old.append({"kind": "epoch", "event": "retrain"})
    old_records, _ = read_wal(old_dir)
    assert len(old_records) > len(records)
    recovered, old_report = recover(old_dir, store=store)
    assert old_report.n_replayed == len(records) == 6
    assert not old_report.replay_errors
    assert recovered.problem_graph.version == live.problem_graph.version
    assert (
        recovered._rng.bit_generator.state == live._rng.bit_generator.state
    )
    assert recovered.total_labels_spent() == live.total_labels_spent()
    next_probes = demo_probes(3, seed=99)
    for mine, twins in zip(
        _solve_all(live, next_probes), _solve_all(recovered, next_probes)
    ):
        assert np.array_equal(mine, twins)


def test_restart_after_checkpoint_then_crash_replays_new_records(tmp_path):
    # The review-found data-loss window: checkpoint → clean restart →
    # more acked mutations → crash. The restarted WAL must continue
    # numbering from the checkpoint's base_seq; restarting at 0 made
    # recovery skip every post-restart record as already-absorbed.
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    live = demo_morer(12)
    service = MoRERService(live, wal_dir=wal_dir)
    probes = demo_probes(6, seed=21)
    for probe in probes[:3]:
        service.solve(probe)
    service.save(store)        # checkpoint: the WAL is header-only now
    service.close()
    service = MoRERService(live, wal_dir=wal_dir)   # clean restart
    for probe in probes[3:]:
        service.solve(probe)
    # Crash without saving: replay must land the post-restart records
    # on top of the checkpointed snapshot.
    recovered, report = recover(wal_dir, store=store)
    assert report.n_replayed == 3 and not report.replay_errors
    assert report.n_skipped == 0
    assert recovered.problem_graph.version == live.problem_graph.version
    assert (
        recovered._rng.bit_generator.state == live._rng.bit_generator.state
    )
    service.close()


def test_save_checkpoint_truncates_wal(tmp_path):
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    service = MoRERService(demo_morer(10), wal_dir=wal_dir)
    for probe in demo_probes(3, seed=1):
        service.solve(probe)
    service.save(store)                    # checkpoint truncates the WAL
    for probe in demo_probes(2, seed=2):
        service.solve(probe)
    service.close()
    _, report = recover(wal_dir, store=store)
    assert report.n_replayed == 2 and report.n_skipped == 0


def test_recovery_skips_records_a_snapshot_absorbed(tmp_path):
    # A crash *between* the snapshot swap and the WAL truncation leaves
    # absorbed records in the log; the snapshot's durability manifest
    # (written inside the atomic swap) makes replay skip them instead
    # of double-applying.
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    live = demo_morer(10)
    service = MoRERService(live, wal_dir=wal_dir)
    for probe in demo_probes(3, seed=1):
        service.solve(probe)
    absorbed_seq = service.stats().service["wal_seq"]
    live.save(store, extras={
        DURABILITY_MANIFEST: json.dumps({"wal_seq": absorbed_seq}),
    })
    for probe in demo_probes(2, seed=2):
        service.solve(probe)
    service.close()
    recovered, report = recover(wal_dir, store=store)
    assert report.n_replayed == 2
    assert report.n_skipped >= 3
    assert recovered.problem_graph.version == live.problem_graph.version
    assert (
        recovered._rng.bit_generator.state == live._rng.bit_generator.state
    )


def test_recover_refuses_records_without_snapshot_or_config(tmp_path):
    wal_dir = tmp_path / "wal"
    with WriteAheadLog(wal_dir, config=None) as wal:
        wal.append({"kind": "solve_batch", "problems": []})
    with pytest.raises(WALError, match="cannot recover"):
        recover(wal_dir, store=None)


def test_recover_nothing_returns_none(tmp_path):
    morer, report = recover(tmp_path / "wal", store=tmp_path / "store")
    assert morer is None and report.n_replayed == 0


# -- crash-mode faults (subprocess) ------------------------------------------------


def test_crash_fault_kills_the_process_like_kill_minus_nine(tmp_path):
    import subprocess
    import sys

    from pathlib import Path

    code = (
        "from repro.durability import WriteAheadLog\n"
        f"wal = WriteAheadLog({str(tmp_path / 'wal')!r})\n"
        "wal.append({'kind': 'epoch', 'event': 'one'})\n"
        "wal.append({'kind': 'epoch', 'event': 'two'})\n"
        "print('unreachable')\n"
    )
    env = dict(os.environ)
    env["REPRO_FAULTS"] = "crash:wal.pre_fsync@2"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == faults.CRASH_EXIT_CODE
    assert "unreachable" not in proc.stdout
    # Record one was fsynced before the crash; record two was written
    # but never fsynced — the page cache still holds it after process
    # death (only power loss would drop it), and it is not torn.
    records, report = read_wal(tmp_path / "wal")
    assert not report.torn
    assert [r["seq"] for r in records] == [1, 2]


# -- replay in a new process -------------------------------------------------------

_LIVE_THEN_DUMP = """
import sys
import numpy as np
from repro.core.morer import MoRER
from repro.durability import recover
from repro.service import MoRERService
from repro.service.fixtures import demo_problems, demo_probes

mode, wal_dir, out = sys.argv[1:]
if mode == "live":
    service = MoRERService(MoRER(random_state=0), wal_dir=wal_dir)
    service.fit(demo_problems(12))
    for probe in demo_probes(6, seed=7):
        service.solve(probe)
    morer = service.morer
else:
    morer, _ = recover(wal_dir)
np.savez(out, **{
    f"{entry.cluster_id}-{part}": getattr(entry, f"training_{part}")
    for entry in morer.repository
    for part in ("features", "labels")
})
"""


def test_recovery_in_a_new_process_trains_identical_entries(tmp_path):
    """A WAL-logged fit and cov tail, replayed by ``recover()`` in a
    process with another string-hash seed, trains every entry on the
    same rows in the same order: AL pools are built in key order, not
    in the iteration order of a set of keys."""
    import subprocess
    import sys

    from pathlib import Path

    def run(mode, hash_seed):
        out = tmp_path / f"{mode}-{hash_seed}.npz"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run(
            [sys.executable, "-c", _LIVE_THEN_DUMP, mode,
             str(tmp_path / "wal"), str(out)],
            env=env, check=True, timeout=300,
        )
        with np.load(out) as arrays:
            return dict(arrays)

    live = run("live", 1)
    for hash_seed in (2, 3):
        recovered = run("recover", hash_seed)
        assert recovered.keys() == live.keys()
        for name, array in live.items():
            assert np.array_equal(recovered[name], array), (hash_seed, name)
