"""Crash-safe filesystem primitives for snapshots.

A MoRER snapshot is a *directory* (models, arrays, manifests), and
``os.replace`` cannot atomically swap a non-empty directory — so
:func:`atomic_directory` gets the same guarantee with a staged-rename
dance that keeps a loadable snapshot on disk through every crash
window:

1. write everything into a hidden ``.NAME.tmp-PID`` sibling;
2. fsync every file, then the tmp dir itself;
3. rename tmp -> ``NAME.new`` (existence of ``.new`` now *implies*
   completeness — nothing ever renames an unfsynced tree there);
4. move the current ``NAME`` aside to ``NAME.prev`` (the kept
   last-good generation);
5. rename ``NAME.new`` -> ``NAME`` and fsync the parent directory.

A crash before step 3 leaves the old ``NAME`` untouched; between 3 and
5 at least one of ``NAME``/``NAME.new`` is a complete snapshot; after 5
the new generation is live and ``NAME.prev`` still holds the previous
one. :func:`snapshot_candidates` enumerates the load order recovery
should try. The swap steps are instrumented with
:mod:`~repro.durability.faults` kill points so the crash-recovery suite
can stop the world inside every window.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from .faults import kill_point

__all__ = [
    "atomic_directory",
    "fsync_tree",
    "snapshot_candidates",
]


def _fsync_path(path):
    """fsync one file or directory; directory fsync is best-effort
    (not supported on some platforms/filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def fsync_tree(root):
    """fsync every file under ``root`` (bottom-up), then each dir."""
    root = Path(root)
    for dirpath, _dirnames, filenames in os.walk(root, topdown=False):
        for name in filenames:
            _fsync_path(os.path.join(dirpath, name))
        _fsync_path(dirpath)


class atomic_directory:
    """Context manager: build a directory's content in a tmp sibling,
    swap it into place atomically on success (see module docstring).

    >>> with atomic_directory("store") as tmp:      # doctest: +SKIP
    ...     (tmp / "manifest.json").write_text("{}")

    On exception the tmp tree is removed and the target is untouched.
    The replaced generation stays as ``NAME.prev``; recovery falls back
    to it when the live directory is lost mid-swap.
    """

    def __init__(self, target):
        self.target = Path(target)
        self._tmp = None

    def __enter__(self):
        parent = self.target.parent
        parent.mkdir(parents=True, exist_ok=True)
        # Stale debris from crashed earlier saves (any pid): the write
        # lock above us guarantees a single writer, so reclaiming here
        # is safe and keeps crash loops from accumulating tmp trees.
        for stale in parent.glob(f".{self.target.name}.tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)
        self._tmp = parent / f".{self.target.name}.tmp-{os.getpid()}"
        self._tmp.mkdir(parents=True)
        return self._tmp

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            return False
        fsync_tree(self._tmp)
        staged = self.target.parent / f"{self.target.name}.new"
        if staged.exists():
            shutil.rmtree(staged)
        os.rename(self._tmp, staged)
        kill_point("snapshot.pre_commit")
        previous = self.target.parent / f"{self.target.name}.prev"
        if self.target.exists():
            if previous.exists():
                shutil.rmtree(previous)
            os.rename(self.target, previous)
            kill_point("snapshot.mid_rename")
        os.rename(staged, self.target)
        _fsync_path(self.target.parent)
        return False


def snapshot_candidates(path):
    """Load-order candidates for a snapshot directory: the live
    directory, then the staged ``.new`` (complete by construction, the
    crash happened mid-swap), then the ``.prev`` last-good generation."""
    path = Path(path)
    return [
        path,
        path.parent / f"{path.name}.new",
        path.parent / f"{path.name}.prev",
    ]


def read_json(path):
    """``json.loads`` of a file, ``None`` when absent/undecodable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
