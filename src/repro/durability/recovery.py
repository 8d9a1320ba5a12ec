"""Crash recovery: last good snapshot + WAL tail replay.

:func:`recover` rebuilds the exact pre-crash MoRER:

1. **Snapshot.** Try the snapshot directory's load candidates in order
   (live dir, staged ``.new``, kept ``.prev`` — see
   :func:`~repro.durability.atomic.snapshot_candidates`); the first
   that loads wins. Its ``durability.json`` records the WAL ``seq`` the
   snapshot absorbed.
2. **WAL tail.** :func:`~repro.durability.wal.read_wal` the directory,
   tolerating a torn final record (it was never acked). Records with
   ``seq`` beyond the snapshot are *re-executed* — ``solve_batch`` and
   ``fit`` calls run again on the restored instance. Determinism under
   the persisted RNG stream makes the replay decision-identical:
   the same probes integrate the same edges, the same retrains fire,
   the same models come out. With no snapshot at all, replay starts
   from a fresh ``MoRER`` built from the config embedded in the WAL
   segment header.

Replay is idempotent against the snapshot boundary (records ≤ the
snapshot's seq are skipped) but deliberately *at-least-once* against
the crash itself: a record that was appended but whose execution never
finished is re-executed in full. Callers should checkpoint right after
a recovery that replayed anything, so the next restart starts from a
snapshot instead of repeating the work.
"""

from __future__ import annotations

from pathlib import Path

from ..core.config import MoRERConfig
from ..core.morer import MoRER, UnsupportedFormatError
from ..core.problem import ERProblem
from .atomic import read_json, snapshot_candidates
from .wal import WALError, read_wal

__all__ = [
    "RecoveryReport",
    "load_snapshot",
    "recover",
    "DURABILITY_MANIFEST",
]

#: File the service drops inside every snapshot it takes while a WAL is
#: attached: ``{"wal_seq": ..., "graph_version": ...}``.
DURABILITY_MANIFEST = "durability.json"


class RecoveryReport:
    """What :func:`recover` did, for logs and assertions."""

    def __init__(self):
        self.snapshot_path = None    # directory the snapshot loaded from
        self.snapshot_seq = 0        # WAL seq the snapshot had absorbed
        self.n_replayed = 0          # records re-executed
        self.n_skipped = 0           # records the snapshot already held
        self.last_seq = 0            # last valid seq seen in the WAL
        self.wal_report = None       # the read_wal scan report
        self.replay_errors = []      # (seq, repr(error)) — re-raised
        #                              failures that also failed live

    def to_dict(self):
        return {
            "snapshot_path": (
                None if self.snapshot_path is None
                else str(self.snapshot_path)
            ),
            "snapshot_seq": self.snapshot_seq,
            "n_replayed": self.n_replayed,
            "n_skipped": self.n_skipped,
            "last_seq": self.last_seq,
            "replay_errors": list(self.replay_errors),
            "wal": None if self.wal_report is None
            else self.wal_report.to_dict(),
        }

    def __repr__(self):
        return (
            f"RecoveryReport(snapshot={self.snapshot_path}, "
            f"replayed={self.n_replayed}, skipped={self.n_skipped}, "
            f"last_seq={self.last_seq})"
        )


def load_snapshot(path):
    """``(morer, used_path)`` from the first loadable snapshot
    candidate, or ``(None, None)`` when none loads. A half-written
    candidate (crash mid-save without the atomic swap — or a damaged
    disk) is skipped, not fatal: the next candidate is the last good
    generation. A candidate in a format this build cannot read is not
    damage: :class:`~repro.core.morer.UnsupportedFormatError`
    propagates, because falling back to an older generation or
    bootstrapping over the store would lose its state."""
    for candidate in snapshot_candidates(path):
        candidate = Path(candidate)
        if not candidate.is_dir():
            continue
        try:
            return MoRER.load(candidate), candidate
        except UnsupportedFormatError:
            raise
        except (OSError, ValueError, KeyError):
            continue
    return None, None


def _snapshot_seq(used_path):
    manifest = read_json(Path(used_path) / DURABILITY_MANIFEST)
    if manifest is None:
        return 0
    return int(manifest.get("wal_seq", 0))


def _problems_from(record):
    return [ERProblem.from_dict(spec) for spec in record["problems"]]


def recover(wal_dir, store=None, config=None):
    """Rebuild the pre-crash MoRER from ``store`` + ``wal_dir``.

    Returns ``(morer, report)``. ``morer`` is ``None`` only when there
    is nothing to recover at all: no loadable snapshot, no WAL records
    and no config to build a fresh instance from (callers bootstrap a
    new repository in that case). ``config`` overrides the WAL header
    config when both are present.

    Raises :class:`~repro.durability.wal.WALError` when WAL records
    exist but neither a snapshot nor a config is available to replay
    them onto — silently dropping acked mutations is never an option —
    and :class:`~repro.core.morer.UnsupportedFormatError` when a
    snapshot under ``store`` was written in another format (nothing is
    written then).
    """
    report = RecoveryReport()
    records, wal_report = read_wal(wal_dir)
    report.wal_report = wal_report
    report.last_seq = wal_report.last_seq

    morer = None
    if store is not None:
        morer, used = load_snapshot(store)
        if morer is not None:
            report.snapshot_path = used
            report.snapshot_seq = _snapshot_seq(used)

    if morer is None:
        config = config if config is not None else wal_report.config
        if config is not None:
            if isinstance(config, dict):
                config = MoRERConfig.from_dict(config)
            morer = MoRER(config)
        elif records:
            raise WALError(
                f"cannot recover: {len(records)} WAL records in "
                f"{wal_dir} but no loadable snapshot"
                + (f" under {store}" if store is not None else "")
                + " and no config in the WAL header"
            )
        else:
            return None, report

    for record in records:
        seq = int(record.get("seq", 0))
        if seq <= report.snapshot_seq:
            report.n_skipped += 1
            continue
        kind = record.get("kind")
        try:
            if kind == "solve_batch":
                morer.solve_batch(_problems_from(record), strategy="cov")
            elif kind == "fit":
                morer.fit(_problems_from(record))
            # "epoch" markers (retrain/new-model notices, snapshot
            # acknowledgements) carry no state — skip.
        except Exception as exc:  # noqa: BLE001 - a record that failed
            # live fails identically on replay (same determinism that
            # makes replay exact); the partial effects it *did* apply
            # live are re-applied the same way. Collect, don't abort.
            report.replay_errors.append((seq, repr(exc)))
        if kind in ("solve_batch", "fit"):
            report.n_replayed += 1
    return morer, report
