"""Append-only write-ahead log for the serving stack.

Between snapshots, every state-mutating operation the service executes
(``sel_cov`` solve ticks, ``fit``) is framed, checksummed and appended
here *before* it runs; recovery replays the tail on top of the last
good snapshot (see :mod:`~repro.durability.recovery`). Because MoRER is
deterministic under a seeded ``random_state`` — the persisted RNG
stream drives every clustering seed and AL draw — re-executing the
logged operations reproduces the crashed process's decisions exactly,
retrains included, without logging model bytes.

On-disk layout
--------------
A WAL directory holds numbered segment files ``wal-00000001.log``,
``wal-00000002.log``, … — one per checkpoint epoch. Each segment is a
stream of frames::

    <u32 payload_len> <u32 crc32(payload)> <payload: compact JSON>

The first frame of every segment is a ``header`` record carrying the
format version, the sequence number the segment starts after
(``base_seq``) and the served MoRER's config (so recovery can rebuild
an unfitted MoRER when no snapshot exists yet). Every data record
carries its own monotonically increasing ``seq``; a snapshot remembers
the seq it absorbed (``durability.json``), which is what makes replay
exact — no marker scanning, no double-apply.

Torn tails are expected, not exceptional: a crash mid-``write`` leaves
a short or checksum-failing final frame. :func:`read_wal` stops at the
first invalid frame and reports what it dropped;
:class:`WriteAheadLog` truncates the torn tail when it reopens the
last segment for append, so the log stays parseable forever. A
segment header of another :data:`WAL_FORMAT` is not a tear: the records
behind it were acked, so :func:`read_wal` raises
:class:`~repro.core.morer.UnsupportedFormatError` instead of dropping
them, which stops recovery and keeps :class:`WriteAheadLog` from
appending to the directory.

fsync policy
------------
``"always"`` fsyncs after every append — an acked mutation survives
power loss. ``"interval"`` fsyncs at most every ``fsync_interval_ms``
(plus on rotation/close) — bounded loss under power failure, near-zero
syscall overhead. ``"off"`` never fsyncs explicitly — survives process
death (``kill -9``: the OS still holds the page cache) but not host
failure. All three tolerate process crashes identically; the policy
only changes the power-loss window.

Inspect a WAL from the shell (the recovery runbook's first step)::

    python -m repro.durability.wal runs/wal
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path

from ..core.morer import UnsupportedFormatError
from .faults import kill_point, write_all, write_hook

__all__ = [
    "WALError",
    "WALReport",
    "WriteAheadLog",
    "read_wal",
    "FSYNC_POLICIES",
]

#: Framing version written into every segment header.
WAL_FORMAT = 1

FSYNC_POLICIES = ("always", "interval", "off")

_FRAME = struct.Struct("<II")

#: Upper bound on a plausible record payload; a length field above it
#: means the frame bytes are garbage, not a huge record.
_MAX_RECORD_BYTES = 256 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class WALError(RuntimeError):
    """The WAL could not be written or is structurally unusable."""


class WALReport:
    """What a :func:`read_wal` scan found (and what it had to drop)."""

    def __init__(self):
        self.segments = []          # scanned segment paths, in order
        self.n_records = 0          # valid data records
        self.last_seq = 0           # seq of the last valid data record
        self.base_seq = 0           # highest base_seq across headers
        self.config = None          # config dict from the first header
        self.torn = False           # scan stopped before the file end
        self.reason = None          # why it stopped
        self.dropped_bytes = 0      # bytes past the last valid frame
        self.dropped_segments = 0   # whole segments after a bad one

    def to_dict(self):
        return {
            "segments": [str(p) for p in self.segments],
            "n_records": self.n_records,
            "last_seq": self.last_seq,
            "base_seq": self.base_seq,
            "torn": self.torn,
            "reason": self.reason,
            "dropped_bytes": self.dropped_bytes,
            "dropped_segments": self.dropped_segments,
        }

    def __repr__(self):
        state = "torn" if self.torn else "clean"
        return (
            f"WALReport({self.n_records} records through seq "
            f"{self.last_seq}, {len(self.segments)} segments, {state})"
        )


def _segment_path(wal_dir, index):
    return Path(wal_dir) / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(path):
    stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(stem)


def _list_segments(wal_dir):
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        return []
    segments = [
        path for path in wal_dir.iterdir()
        if path.name.startswith(_SEGMENT_PREFIX)
        and path.name.endswith(_SEGMENT_SUFFIX)
    ]
    return sorted(segments, key=_segment_index)


def _scan_segment(path):
    """``(records, valid_bytes, reason)`` for one segment file.

    ``records`` are the decoded payload dicts (headers included) up to
    the first invalid frame; ``valid_bytes`` is the clean prefix
    length; ``reason`` is ``None`` for a fully clean file.
    """
    data = path.read_bytes()
    records = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME.size > total:
            return records, offset, (
                f"torn frame header ({total - offset} trailing bytes)"
            )
        length, crc = _FRAME.unpack_from(data, offset)
        if length > _MAX_RECORD_BYTES:
            return records, offset, (
                f"implausible record length {length} at offset {offset}"
            )
        start = offset + _FRAME.size
        if start + length > total:
            return records, offset, (
                f"torn record payload ({total - start} of {length} "
                f"bytes at offset {offset})"
            )
        payload = data[start:start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return records, offset, (
                f"checksum mismatch at offset {offset}"
            )
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offset, (
                f"undecodable record at offset {offset}"
            )
        records.append(record)
        offset = start + length
    return records, offset, None


def read_wal(wal_dir):
    """Read every valid data record from a WAL directory.

    Returns ``(records, report)``; ``records`` excludes segment
    headers. The scan is tolerant by design: it stops at the first
    torn/corrupt frame, ignores everything after it (a later segment
    cannot be trusted once an earlier one is damaged mid-file) and
    accounts for what it dropped in the report — recovery logs that
    loudly instead of deserialising garbage. A segment header of
    another :data:`WAL_FORMAT` raises
    :class:`~repro.core.morer.UnsupportedFormatError` instead.
    """
    report = WALReport()
    records = []
    segments = _list_segments(wal_dir)
    for position, path in enumerate(segments):
        segment_records, valid_bytes, reason = _scan_segment(path)
        report.segments.append(path)
        for record in segment_records:
            if record.get("kind") == "header":
                if record.get("format") != WAL_FORMAT:
                    raise UnsupportedFormatError(
                        f"unsupported WAL format {record.get('format')!r} "
                        f"in {path}; this build reads WAL format "
                        f"{WAL_FORMAT}"
                    )
                if report.config is None:
                    report.config = record.get("config")
                report.base_seq = max(
                    report.base_seq, int(record.get("base_seq", 0))
                )
                continue
            records.append(record)
            report.n_records += 1
            report.last_seq = int(record.get("seq", report.last_seq))
        if reason is not None:
            report.torn = True
            report.reason = f"{path.name}: {reason}"
            report.dropped_bytes = path.stat().st_size - valid_bytes
            report.dropped_segments = len(segments) - position - 1
            for later in segments[position + 1:]:
                report.dropped_bytes += later.stat().st_size
            break
    return records, report


class WriteAheadLog:
    """Append side of the WAL (see module docstring for the format).

    Parameters
    ----------
    wal_dir : path
        Directory of segment files; created if absent. When existing
        segments are found, the log scans them, adopts the last valid
        ``seq`` and truncates a torn tail off the final segment before
        appending (the torn frame was never acked — dropping it is the
        contract, keeping it would corrupt every later append).
    fsync_policy : {"always", "interval", "off"}
    fsync_interval_ms : float
        Max staleness under the ``"interval"`` policy.
    config : dict, optional
        The served MoRER's config, embedded in segment headers so
        recovery can rebuild an unfitted MoRER with no snapshot on
        disk.
    """

    def __init__(self, wal_dir, fsync_policy="always",
                 fsync_interval_ms=50.0, config=None):
        if fsync_policy not in FSYNC_POLICIES:
            raise WALError(
                f"unknown fsync policy {fsync_policy!r}; choose from "
                f"{FSYNC_POLICIES}"
            )
        self.wal_dir = Path(wal_dir)
        self.fsync_policy = fsync_policy
        self.fsync_interval = max(float(fsync_interval_ms), 0.0) / 1000.0
        self.config = config
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        #: Physical fsync calls issued and the cumulative seconds they
        #: took — the gateway's /metrics pulls these at scrape time.
        self.fsyncs = 0
        self.fsync_seconds = 0.0
        self._last_fsync = time.monotonic()
        self._fh = None
        self._repaired = None   # (path, dropped_bytes) when a tail was cut
        segments = _list_segments(self.wal_dir)
        _, report = read_wal(self.wal_dir)
        # A freshly checkpointed WAL is a single header-only segment:
        # no data records, but the header's base_seq remembers where
        # numbering stands. Ignoring it would restart seq at 0 and make
        # every later append invisible to recovery (replay skips
        # seq <= the snapshot's absorbed seq).
        self._seq = max(report.last_seq, report.base_seq)
        if not segments:
            self._segment_index = 0
            self._open_segment(base_seq=self._seq)
            return
        last = segments[-1]
        self._segment_index = _segment_index(last)
        _, valid_bytes, reason = _scan_segment(last)
        if reason is not None:
            with open(last, "r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            self._repaired = (last, reason)
        self._fh = open(last, "ab", buffering=0)

    # -- lifecycle ---------------------------------------------------------

    @property
    def seq(self):
        """Sequence number of the last successfully appended record."""
        return self._seq

    @property
    def repaired(self):
        """``(segment_path, reason)`` when opening truncated a torn
        tail, else ``None`` — surfaced in recovery logs."""
        return self._repaired

    def close(self):
        if self._fh is not None:
            self._do_fsync(force=self.fsync_policy != "off")
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- writing -----------------------------------------------------------

    def append(self, payload):
        """Frame, write and (per policy) fsync one record; returns its
        ``seq``. The seq advances only on success, so a failed append
        never leaves a numbering gap for recovery to trip on."""
        if self._fh is None:
            raise WALError("the WAL is closed")
        seq = self._seq + 1
        record = dict(payload)
        record["seq"] = seq
        kill_point("wal.pre_append")
        try:
            self._write_frame(record, site="wal.mid_record")
            kill_point("wal.pre_fsync")
            self._do_fsync()
            kill_point("wal.post_fsync")
        except WALError:
            raise
        except OSError as exc:
            raise WALError(f"WAL append failed: {exc}") from exc
        self._seq = seq
        return seq

    def checkpoint(self, seq):
        """A snapshot through ``seq`` is durable: rotate to a fresh
        segment and delete the old ones — every record they hold is
        ≤ ``seq`` (appends and checkpoints serialise on the service
        write lock), so replay will never need them again."""
        if self._fh is None:
            raise WALError("the WAL is closed")
        if seq > self._seq:
            raise WALError(
                f"checkpoint seq {seq} is past the last append {self._seq}"
            )
        self._do_fsync(force=self.fsync_policy != "off")
        self._fh.close()
        retired = _list_segments(self.wal_dir)
        self._open_segment(base_seq=seq)
        for path in retired:
            try:
                path.unlink()
            except OSError:
                pass

    # -- internals ---------------------------------------------------------

    def _open_segment(self, base_seq):
        self._segment_index += 1
        path = _segment_path(self.wal_dir, self._segment_index)
        self._fh = open(path, "ab", buffering=0)
        self._write_frame({
            "kind": "header",
            "format": WAL_FORMAT,
            "base_seq": int(base_seq),
            "fsync_policy": self.fsync_policy,
            "config": self.config,
        }, site=None)
        self._do_fsync(force=self.fsync_policy != "off")

    def _write_frame(self, record, site):
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frame = _FRAME.pack(
            len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        ) + payload
        if site is None:
            write_all(self._fh, frame)
        else:
            write_hook(site, self._fh, frame)

    def _do_fsync(self, force=False):
        if self.fsync_policy == "off" and not force:
            return
        now = time.monotonic()
        if (
            not force
            and self.fsync_policy == "interval"
            and now - self._last_fsync < self.fsync_interval
        ):
            return
        started = time.perf_counter()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self.fsync_seconds += time.perf_counter() - started
        self._last_fsync = now


def _main(argv=None):
    """``python -m repro.durability.wal DIR`` — inspect a WAL."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.durability.wal",
        description="Inspect a repro WAL directory: segments, records, "
                    "torn-tail status.",
    )
    parser.add_argument("wal_dir", help="WAL directory to scan")
    parser.add_argument(
        "--records", action="store_true",
        help="print one line per record (seq, kind, payload summary)",
    )
    args = parser.parse_args(argv)
    try:
        records, report = read_wal(args.wal_dir)
    except UnsupportedFormatError as exc:
        raise SystemExit(str(exc)) from None
    print(json.dumps(report.to_dict(), indent=2))
    if args.records:
        for record in records:
            kind = record.get("kind", "?")
            extra = ""
            if kind in ("solve_batch", "fit"):
                extra = f" problems={len(record.get('problems', []))}"
            print(f"seq={record.get('seq')} kind={kind}{extra}")
    return report


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    _main()
