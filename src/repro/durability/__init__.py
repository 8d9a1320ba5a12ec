"""Durability for the serving stack: WAL, atomic snapshots, recovery.

A MoRER repository is an *asset* — the paper's whole argument is that
model training amortises across problems — so losing mutations to a
crash (or a snapshot to a crash mid-save) defeats the point. This
package bounds both losses:

- :mod:`~repro.durability.wal` — an append-only, length-prefixed and
  checksummed write-ahead log of the service's mutating operations,
  with per-record / interval / off fsync policies and torn-tail
  tolerance;
- :mod:`~repro.durability.atomic` — crash-safe directory swaps that
  make :meth:`MoRER.save` atomic and keep the previous generation;
- :mod:`~repro.durability.recovery` — load the last good snapshot,
  replay the WAL tail, come back decision-identical;
- :mod:`~repro.durability.faults` — named kill points (crash /
  injected-error / torn-write) that drive the deterministic
  crash-recovery test suite and the CI ``kill -9`` smoke job.

See the README's "Durability & recovery" section for the operational
runbook (WAL layout, fsync trade-offs, inspection, trimming).
"""

from .atomic import atomic_directory, snapshot_candidates
from .faults import InjectedFault, KILL_POINTS, kill_point
from .recovery import DURABILITY_MANIFEST, RecoveryReport, load_snapshot, recover
from .wal import FSYNC_POLICIES, WALError, WALReport, WriteAheadLog, read_wal

__all__ = [
    "WriteAheadLog",
    "read_wal",
    "WALError",
    "WALReport",
    "FSYNC_POLICIES",
    "recover",
    "load_snapshot",
    "RecoveryReport",
    "DURABILITY_MANIFEST",
    "atomic_directory",
    "snapshot_candidates",
    "InjectedFault",
    "KILL_POINTS",
    "kill_point",
]
