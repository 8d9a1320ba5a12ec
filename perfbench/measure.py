"""Statistics, scoring and the environment record shared by the workloads."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import time

import numpy as np

#: A tail percentile has at least this many samples beyond it, and at
#: least TAIL_SHARE of them: with a few hundred samples the extreme 2-3%
#: are one or two rare events (a retraining tick) whose count changes
#: from run to run, so the reported tail is p95 there.
TAIL_BEYOND = 10
TAIL_SHARE = 0.05


def median(values):
    return float(np.median(values)) if len(values) else 0.0


def best(values):
    """Fastest of repeated runs of identical work. Contention on a
    shared host only adds time, and the host's speed shifts for seconds
    at a time, so the fastest run is the work's own cost and the others
    add the host's slow phases (the rule ``timeit`` follows)."""
    return float(min(values)) if len(values) else 0.0


def tail(values):
    """``(value, percentile, n)``: the highest percentile with at least
    ``max(TAIL_BEYOND, TAIL_SHARE * n)`` samples beyond it (the maximum
    when there are too few samples, recorded as percentile 100)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    beyond = max(TAIL_BEYOND, int(np.ceil(TAIL_SHARE * n)))
    if n <= beyond:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


class F1:
    """Pair-level F1 of returned predictions against ground truth."""

    def __init__(self):
        self.tp = self.fp = self.fn = 0

    def add(self, predictions, truth):
        predictions = np.asarray(predictions, dtype=int)
        truth = np.asarray(truth, dtype=int)
        if predictions.shape != truth.shape:
            raise ValueError(
                f"{predictions.shape[0]} predictions for "
                f"{truth.shape[0]} pairs"
            )
        self.tp += int(np.sum((predictions == 1) & (truth == 1)))
        self.fp += int(np.sum((predictions == 1) & (truth == 0)))
        self.fn += int(np.sum((predictions == 0) & (truth == 1)))

    @property
    def value(self):
        denominator = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denominator if denominator else 0.0


def metric_total(text, name, label_filter=None):
    """Sum of one Prometheus series family in a ``/metrics`` scrape."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        head, _, value = line.rpartition(" ")
        if head.split("{", 1)[0] != name:
            continue
        if label_filter is not None and not label_filter(head):
            continue
        total += float(value)
    return total


def calibration_loop():
    """Seconds for a fixed busy loop, pure Python plus NumPy sorts (the
    workloads' mix): host contention made visible next to the numbers
    it would distort."""
    data = np.random.default_rng(0).random(200_000)
    started = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    for _ in range(5):
        np.sort(data)
    return time.perf_counter() - started


def peak_rss_mb(pid=None):
    """Peak resident set (``VmHWM``) of a process, in MB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def filesystem(path):
    """``fstype (mount point)`` of the mount that holds ``path``."""
    path = os.path.realpath(path)
    best = ("?", "")
    with open("/proc/mounts") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best[1]):
                best = (fields[2], mount)
    return f"{best[0]} ({best[1]})"


def _openblas():
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line:
                return ctypes.CDLL(line.split()[-1])
    return None


def blas_info():
    """``(version string, thread count)`` of this process's OpenBLAS."""
    lib = _openblas()
    if lib is None:
        return "not loaded", 0
    version, threads = "?", 0
    for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                 "openblas_get_config"):
        func = getattr(lib, name, None)
        if func is not None:
            func.restype = ctypes.c_char_p
            version = func().decode()
            break
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        func = getattr(lib, name, None)
        if func is not None:
            func.restype = ctypes.c_int
            threads = int(func())
            break
    return version, threads


def process_blas_threads(pid):
    """BLAS thread setting of a child process, read from its environment."""
    with open(f"/proc/{pid}/environ", "rb") as fh:
        for item in fh.read().split(b"\0"):
            if item.startswith(b"OPENBLAS_NUM_THREADS="):
                return int(item.split(b"=", 1)[1])
    return 0


def source_id(root):
    """Git sha of the checkout, or a digest of ``src/`` when it is not a
    git repository."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and (
                os.path.realpath(lines[0]) == os.path.realpath(root)):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(root, store_dir):
    version, threads = blas_info()
    return {
        "source": source_id(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": {"benchmark": threads},
        "nproc": os.cpu_count(),
        "filesystem": filesystem(store_dir),
        "argv": sys.argv[1:],
    }
