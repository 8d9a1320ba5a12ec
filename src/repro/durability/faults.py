"""Deterministic fault injection at named durability kill points.

The durability code paths (WAL appends, fsyncs, atomic snapshot swaps)
call :func:`kill_point` at every site where a crash would be
interesting, and route raw writes through :func:`write_hook` so a
record can be *torn* — partially written — exactly the way a power cut
or ``kill -9`` mid-``write(2)`` tears it. Tests and the CI
crash-recovery smoke job arm those sites with *fault plans*; production
code pays one dict lookup per site when no plan is armed.

Plan grammar (comma-separated, via ``REPRO_FAULTS`` or :func:`install`)::

    MODE:SITE[@HIT][:ARG]

    crash:wal.pre_fsync          os._exit(137) at the 1st hit (real
                                 process death — subprocess tests)
    error:snapshot.mid_rename    raise InjectedFault instead (in-process
                                 tests recover from the on-disk debris)
    error:wal.pre_append@3       trigger at the 3rd hit of the site
    torn:wal.mid_record:17       write only the first 17 bytes of the
                                 record frame, then os._exit(137)
    torn-error:wal.mid_record:17 same tear, raise InjectedFault instead

Registered sites are listed in :data:`KILL_POINTS`; arming an unknown
site is a loud error (a typo would otherwise silently never fire).
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "KILL_POINTS",
    "install",
    "clear",
    "kill_point",
    "write_hook",
    "write_all",
]

#: Every site the durability layer calls :func:`kill_point` /
#: :func:`write_hook` at. The fault-injection suite iterates this set,
#: so adding a site here without arming-path coverage fails a test.
KILL_POINTS = frozenset({
    "wal.pre_append",    # before the record frame is written
    "wal.mid_record",    # write hook: the frame may be torn mid-write
    "wal.pre_fsync",     # frame written, fsync not yet issued
    "wal.post_fsync",    # fsync durable, ack not yet returned
    "snapshot.mid_write",   # inside the snapshot tmp dir, half written
    "snapshot.pre_commit",  # tmp complete + fsynced, swap not started
    "snapshot.mid_rename",  # old snapshot moved aside, new not yet in
})

_MODES = ("crash", "error", "torn", "torn-error")

#: Exit code used by crash-mode faults; matches SIGKILL's 128+9 so logs
#: read like the real ``kill -9`` the fault simulates.
CRASH_EXIT_CODE = 137


class InjectedFault(RuntimeError):
    """Raised by error-mode fault plans (crash-as-exception for
    in-process tests; the on-disk state is identical to a crash at the
    same site)."""


class FaultPlan:
    """One armed fault: mode, site, which hit triggers, optional arg."""

    __slots__ = ("mode", "site", "hit", "arg", "hits")

    def __init__(self, mode, site, hit=1, arg=None):
        if mode not in _MODES:
            raise ValueError(f"unknown fault mode {mode!r}; use {_MODES}")
        if site not in KILL_POINTS:
            raise ValueError(
                f"unknown kill point {site!r}; registered sites: "
                f"{sorted(KILL_POINTS)}"
            )
        if mode in ("torn", "torn-error") and site != "wal.mid_record":
            raise ValueError("torn faults only apply to wal.mid_record")
        self.mode = mode
        self.site = site
        self.hit = int(hit)
        self.arg = arg
        self.hits = 0

    @classmethod
    def parse(cls, spec):
        """Parse one ``MODE:SITE[@HIT][:ARG]`` spec string."""
        parts = spec.strip().split(":")
        if len(parts) < 2:
            raise ValueError(f"fault spec {spec!r} is not MODE:SITE[...]")
        mode, site = parts[0], parts[1]
        arg = int(parts[2]) if len(parts) > 2 else None
        hit = 1
        if "@" in site:
            site, hit = site.split("@", 1)
        return cls(mode, site, hit=int(hit), arg=arg)

    def __repr__(self):
        return (
            f"FaultPlan({self.mode}:{self.site}@{self.hit}"
            + (f":{self.arg}" if self.arg is not None else "") + ")"
        )


_lock = threading.Lock()
_plans = []


def _load_env():
    spec = os.environ.get("REPRO_FAULTS", "")
    return [FaultPlan.parse(part) for part in spec.split(",") if part.strip()]


def install(spec):
    """Arm fault plans from a spec string (or list of plans/specs)."""
    if isinstance(spec, str):
        plans = [FaultPlan.parse(part) for part in spec.split(",")
                 if part.strip()]
    else:
        plans = [
            plan if isinstance(plan, FaultPlan) else FaultPlan.parse(plan)
            for plan in spec
        ]
    with _lock:
        _plans.extend(plans)
    return plans


def clear():
    """Disarm every plan (tests call this in teardown)."""
    with _lock:
        del _plans[:]


def _trigger(plan):
    if plan.mode in ("crash", "torn"):
        # Flush nothing, close nothing: this is kill -9, not sys.exit.
        os._exit(CRASH_EXIT_CODE)
    raise InjectedFault(f"injected fault at {plan.site}")


def _match(site):
    """The armed plan whose hit count just came due at ``site``."""
    with _lock:
        for plan in _plans:
            if plan.site == site:
                plan.hits += 1
                if plan.hits == plan.hit:
                    return plan
    return None


def kill_point(site):
    """Crash/raise here when a plan for ``site`` is due; no-op cheap
    otherwise. Torn plans never fire at a bare kill point."""
    if not _plans:
        return
    plan = _match(site)
    if plan is not None and plan.mode in ("crash", "error"):
        _trigger(plan)


def write_all(fh, data):
    """Write every byte of ``data`` to ``fh``, looping on short writes.

    The WAL files are unbuffered (``buffering=0``), and a raw
    ``write(2)`` may return short — signals, huge frames — which would
    tear a frame with no fault armed and no error raised. The only torn
    frames this module allows are the ones it injects."""
    view = memoryview(data)
    while len(view) > 0:
        written = fh.write(view)
        if written is None:
            raise OSError(
                "file rejected a WAL write (non-blocking stream?)"
            )
        view = view[written:]


def write_hook(site, fh, data):
    """Write ``data`` to ``fh`` — or, when a torn plan for ``site`` is
    due, write only its first ``arg`` bytes (flushed so the tear is on
    disk) and trigger. Crash/error plans at the site fire before any
    byte is written."""
    if _plans:
        plan = _match(site)
        if plan is not None:
            if plan.mode in ("crash", "error"):
                _trigger(plan)
            cut = plan.arg if plan.arg is not None else max(len(data) // 2, 1)
            write_all(fh, data[:cut])
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:
                pass
            _trigger(plan)
    write_all(fh, data)


# Environment-armed plans (subprocess tests, CI smoke): loaded once at
# import; install()/clear() manage the same registry afterwards.
_plans.extend(_load_env())
