"""`MoRERService`: a concurrency-safe façade over one :class:`MoRER`.

Concurrency contract
--------------------
A fitted MoRER is a single-threaded object; the service makes it
servable by routing every operation through a write-preferring
:class:`~repro.service.rwlock.ReadWriteLock`:

* ``sel_base`` solves are read-only (the lazy search caches are flushed
  with :meth:`~repro.core.ModelRepository.prepare_search` after every
  mutation) and share the read lock — any number run concurrently;
* ``sel_cov`` solves, :meth:`fit` and :meth:`save` mutate the graph,
  partition state and repository, and serialise on the write lock.

Micro-batching
--------------
``sel_cov`` requests are not executed by the calling thread. They are
appended to a bounded queue (:class:`~repro.service.Overloaded` beyond
``max_queue_depth``) and a single background scheduler thread
coalesces whatever is queued — up to ``max_batch_size`` requests,
holding a non-full tick open ``max_wait_ms`` for stragglers — into
**one** :meth:`MoRER.solve_batch` call per tick.
That is exactly the amortisation :meth:`solve_batch` already provides
(one sketch-prefiltered integration pass + one row replay per
batch), now triggered by concurrent client pressure instead of an
explicit batch: N clients solving simultaneously pay one integration,
and their decisions are byte-identical to a direct ``solve_batch`` of
the same probes in arrival order. Each request carries a
:class:`concurrent.futures.Future`; callers block on their own future
only, so slow ticks never head-of-line block the read path.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import Future

from ..core.morer import MoRER, NotFittedError
from ..core.problem import ERProblem
from ..durability.faults import InjectedFault
from ..durability.recovery import DURABILITY_MANIFEST
from ..durability.wal import WALError, WriteAheadLog
from .errors import (
    InvalidRequest,
    NotFitted,
    Overloaded,
    ServiceError,
    Unavailable,
)
from .observability import ServiceMetrics
from .rwlock import ReadWriteLock, requires_read_lock, requires_write_lock
from .types import FitRequest, RepositoryStats, SolveRequest, SolveResponse

__all__ = ["MoRERService"]


class _PendingSolve:
    """One queued ``sel_cov`` request and the future its caller holds."""

    __slots__ = ("problem", "future")

    def __init__(self, problem):
        self.problem = problem
        self.future = Future()


class MoRERService:
    """Serve one :class:`MoRER` to concurrent callers.

    Parameters
    ----------
    morer : MoRER
        The instance to serve — already fitted, or fitted later through
        :meth:`fit`.
    max_batch_size : int
        Micro-batching ceiling: how many queued ``sel_cov`` requests
        the scheduler may coalesce into one :meth:`MoRER.solve_batch`
        call per tick. ``1`` disables coalescing.
    max_wait_ms : float
        How long (milliseconds) the scheduler holds a non-full tick
        open for more requests: a latency floor traded for throughput.
        ``0`` dispatches whatever is queued immediately.
    max_queue_depth : int
        Bounded admission queue: with this many requests queued and
        not yet dispatched, further submissions fail fast with
        :class:`~repro.service.Overloaded`.
    wal_dir : path, optional
        Attach a :class:`~repro.durability.WriteAheadLog` under this
        directory: every mutating operation (``cov`` solve tick,
        :meth:`fit`) is appended — and fsynced per ``fsync_policy`` —
        *before* it executes, so a crash loses nothing past the last
        fsync (replay via :func:`repro.durability.recover`). When an
        append fails the service turns **degraded**: mutations raise
        :class:`~repro.service.Unavailable` (HTTP 503) while read-only
        solves and stats continue; only a restart clears it.
    fsync_policy : {"always", "interval", "off"}, optional
        WAL fsync policy (default ``"always"``); see
        :mod:`repro.durability.wal` for the power-loss trade-offs.
    fsync_interval_ms : float, optional
        Max fsync staleness under the ``"interval"`` policy.
    checkpoint_store : path, optional
        Snapshot directory for automatic checkpoints.
    checkpoint_every : int
        When > 0 (requires ``checkpoint_store``), the scheduler saves a
        snapshot and truncates the WAL after every ``checkpoint_every``
        appended records, bounding replay time after a crash.

    Every serving count lives in one instrument of :attr:`metrics`
    (a :class:`~repro.service.observability.ServiceMetrics`): ``/metrics``
    renders them and :meth:`stats` reads them.
    """

    def __init__(self, morer, max_batch_size=16, max_wait_ms=2.0,
                 max_queue_depth=256, wal_dir=None, fsync_policy=None,
                 fsync_interval_ms=None, checkpoint_store=None,
                 checkpoint_every=0):
        if not isinstance(morer, MoRER):
            raise InvalidRequest(
                f"MoRERService serves a MoRER, got {type(morer).__name__}"
            )
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_depth = int(max_queue_depth)
        if self.max_batch_size < 1:
            raise InvalidRequest("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise InvalidRequest("max_wait_ms must be >= 0")
        if self.max_queue_depth < 1:
            raise InvalidRequest("max_queue_depth must be >= 1")
        self._morer = morer
        self._lock = ReadWriteLock()
        self._queue = []
        self._queue_cond = threading.Condition()
        self._closed = False
        self.metrics = ServiceMetrics()
        self.metrics.register_collect(self._collect_metrics)
        self._tick_seq = 0
        self._degraded_reason = None
        self._last_checkpoint_error = None
        self._checkpoint_fail_streak = 0
        self._checkpoint_store = checkpoint_store
        self.checkpoint_every = int(checkpoint_every or 0)
        if self.checkpoint_every < 0:
            raise InvalidRequest("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and checkpoint_store is None:
            raise InvalidRequest(
                "checkpoint_every requires a checkpoint_store to save to"
            )
        self._wal = None
        self._last_checkpoint_seq = 0
        if wal_dir is not None:
            self._wal = WriteAheadLog(
                wal_dir,
                fsync_policy=(
                    "always" if fsync_policy is None else fsync_policy
                ),
                fsync_interval_ms=(
                    50.0 if fsync_interval_ms is None
                    else float(fsync_interval_ms)
                ),
                config=morer.config.to_dict(),
            )
            self._last_checkpoint_seq = self._wal.seq
        self._n_features = None
        if morer.repository is not None:
            with self._lock.write_lock():
                self._after_mutation()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="morer-service-scheduler",
            daemon=True,
        )
        self._scheduler.start()

    # -- lifecycle ---------------------------------------------------------

    @property
    def morer(self):
        """The wrapped instance. Direct use bypasses the locking
        discipline — callers must hold no expectation of concurrent
        safety when touching it."""
        return self._morer

    def close(self):
        """Stop the scheduler after draining queued requests; closes
        the WAL (final fsync) once the last tick has appended."""
        with self._queue_cond:
            if self._closed:
                return
            self._closed = True
            self._queue_cond.notify_all()
        self._scheduler.join()
        if self._wal is not None:
            try:
                self._wal.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- serving -----------------------------------------------------------

    def solve(self, request):
        """Solve one problem; blocks until the decision is available.

        ``request`` may be a :class:`SolveRequest`, a raw
        :class:`~repro.core.ERProblem`, or the dict form of a request
        (what the HTTP gateway feeds through).
        """
        return self.submit(request).result()

    def submit(self, request):
        """Non-blocking form of :meth:`solve`: returns a
        :class:`~concurrent.futures.Future` of a
        :class:`SolveResponse`.

        ``base`` requests run in the calling thread (shared read lock)
        and come back already resolved; ``cov`` requests are queued
        for the micro-batching scheduler.
        """
        request = self._coerce_solve_request(request)
        strategy = request.strategy or self._morer.config.selection
        self._check_fitted()
        self._check_features(request.problem)
        if strategy == "base":
            return self._base_future(request.problem)
        self._check_durable()
        return self._submit_cov(request.problem)

    def _base_future(self, problem):
        """A resolved future holding one ``sel_base`` solve (or its
        translated error)."""
        future = Future()
        try:
            future.set_result(self._solve_base(problem))
        except BaseException as exc:  # noqa: BLE001 - resolved into caller's future
            future.set_exception(self._translate(exc))
        return future

    def solve_batch(self, requests):
        """Solve several problems; returns responses in input order.

        Admission is all-or-nothing: every request is validated and
        the ``cov`` members are enqueued under one queue reservation
        before any work starts, so a mid-list ``InvalidRequest`` or
        ``Overloaded`` leaves nothing executing server-side. All
        ``cov`` members land in the queue before any blocking wait, so
        one client's batch coalesces with itself (and with any other
        client's concurrent traffic) exactly like independent
        submissions would.

        Post-admission failures are per-request: if any member's solve
        errors after admission, every other member still completes
        (and its effects stand), all futures are awaited, and the
        first failing member's error is raised. Callers that need the
        surviving members' responses alongside the failure should
        :meth:`submit` each request and inspect the futures
        individually.
        """
        requests = [
            self._coerce_solve_request(request)
            for request in list(requests)
        ]
        self._check_fitted()
        for request in requests:
            self._check_features(request.problem)
        default = self._morer.config.selection
        strategies = [request.strategy or default for request in requests]
        cov_indices = [
            i for i, strategy in enumerate(strategies) if strategy == "cov"
        ]
        if cov_indices:
            self._check_durable()
        pendings = self._enqueue_cov(
            [requests[i].problem for i in cov_indices]
        )
        futures = [None] * len(requests)
        for i, pending in zip(cov_indices, pendings):
            futures[i] = pending.future
        for i, strategy in enumerate(strategies):
            if strategy == "base":
                futures[i] = self._base_future(requests[i].problem)
        # Await every future before surfacing any failure, so a raised
        # error never leaves tick-mates' work silently in flight.
        outcomes = [
            (future.result, future.exception()) for future in futures
        ]
        for _result, error in outcomes:
            if error is not None:
                raise error
        return [result() for result, _ in outcomes]

    def solve_batch_envelopes(self, requests):
        """Per-item variant of :meth:`solve_batch`: never raises for a
        single bad member.

        Returns a list aligned with ``requests`` where each slot is a
        :class:`SolveResponse` on success or a :class:`ServiceError` on
        failure — the HTTP gateway renders these as
        ``{"ok": true, "result": ...} | {"ok": false, "error": ...}``
        envelopes. Whole-call conditions still raise for the batch:
        :class:`NotFitted` (nothing can succeed) and
        :class:`Overloaded` (admission of the ``cov`` members stays
        all-or-nothing, so a full queue leaves nothing executing).
        Under degraded mode the ``cov`` members come back as
        :class:`Unavailable` envelopes while ``base`` members still
        run.
        """
        requests = list(requests)
        self._check_fitted()
        default = self._morer.config.selection
        outcomes = [None] * len(requests)
        coerced = [None] * len(requests)
        strategies = [None] * len(requests)
        for i, request in enumerate(requests):
            try:
                request = self._coerce_solve_request(request)
                self._check_features(request.problem)
            except ServiceError as exc:
                outcomes[i] = exc
                continue
            coerced[i] = request
            strategies[i] = request.strategy or default
        cov_indices = [
            i for i, strategy in enumerate(strategies)
            if strategy == "cov" and outcomes[i] is None
        ]
        if cov_indices:
            try:
                self._check_durable()
            except Unavailable as exc:
                for i in cov_indices:
                    outcomes[i] = exc
                cov_indices = []
        pendings = self._enqueue_cov(
            [coerced[i].problem for i in cov_indices]
        )
        futures = {}
        for i, pending in zip(cov_indices, pendings):
            futures[i] = pending.future
        for i, strategy in enumerate(strategies):
            if strategy == "base" and outcomes[i] is None:
                futures[i] = self._base_future(coerced[i].problem)
        for i, future in futures.items():
            error = future.exception()
            if error is None:
                outcomes[i] = future.result()
            elif isinstance(error, ServiceError):
                outcomes[i] = error
            else:
                outcomes[i] = ServiceError(str(error) or repr(error))
        return outcomes

    def fit(self, request):
        """Fit the wrapped MoRER from a :class:`FitRequest` (or a list
        of labelled problems, or the request's dict form).

        With a WAL attached the fit request is appended (write-ahead)
        before training runs, so a crash mid-fit replays it."""
        request = self._coerce_fit_request(request)
        with self._lock.write_lock():
            if self._morer.repository is not None:
                raise InvalidRequest(
                    "the service is already fitted; extend the "
                    "repository with sel_cov solves instead of refitting"
                )
            self._check_durable()
            self._wal_append({
                "kind": "fit",
                "problems": [
                    problem.to_dict() for problem in request.problems
                ],
            })
            try:
                self._morer.fit(request.problems)
            except ValueError as exc:
                raise InvalidRequest(str(exc)) from exc
            finally:
                # Even a failed fit may have left a partially built
                # repository/graph behind; flush its lazy caches so
                # read-lock searches never rebuild them concurrently.
                self._after_mutation()
        return self.stats()

    def save(self, path):
        """Persist the whole session (exclusive) via :meth:`MoRER.save`.

        With a WAL attached this is a **checkpoint**: the snapshot
        embeds ``durability.json`` recording the WAL ``seq`` it absorbs
        (written inside the atomic swap, so snapshot and seq can never
        disagree), and once the snapshot is durable the WAL rotates to
        a fresh segment and deletes the old ones. A degraded service
        still writes the snapshot but keeps its WAL, so that save is no
        checkpoint.

        Every checkpoint records its outcome here, whether the
        scheduler (:meth:`_maybe_checkpoint`) or ``POST /save`` asked
        for it: one ``morer_checkpoints_total{outcome}``, and
        ``last_checkpoint_error`` set on failure and cleared on
        success. A failed snapshot write raises. A failed WAL
        truncation leaves the snapshot safe, degrades the service and
        returns ``False``; otherwise the save returns ``True``.
        """
        started = time.perf_counter()
        with self._lock.write_lock():
            self._check_fitted()
            wal = self._wal
            checkpoint = wal is not None and self._degraded_reason is None
            extras = None
            if wal is not None:
                extras = {
                    DURABILITY_MANIFEST: json.dumps({"wal_seq": wal.seq}),
                }
            try:
                self._morer.save(path, extras=extras)
            except Exception as exc:  # noqa: BLE001 - recorded, then re-raised
                if checkpoint:
                    self._record_checkpoint(exc)
                raise
            if not checkpoint:
                return True
            try:
                wal.checkpoint(wal.seq)
            except (WALError, OSError) as exc:
                # The snapshot is safe; the WAL may not be. Refuse
                # further mutations rather than risk un-replayable acks.
                self._enter_degraded(f"checkpoint failed: {exc}")
                self._record_checkpoint(exc)
                return False
            self._last_checkpoint_seq = wal.seq
            self._record_checkpoint(None)
            self.metrics.checkpoint_seconds.observe(
                time.perf_counter() - started
            )
            return True

    def _record_checkpoint(self, error):
        """Count one checkpoint outcome and keep ``error`` (``None`` on
        success) as ``last_checkpoint_error``."""
        self.metrics.checkpoints_total.inc(
            outcome="ok" if error is None else "failed"
        )
        self._last_checkpoint_error = (
            None if error is None else f"{type(error).__name__}: {error}"
        )

    def stats(self):
        """Operational snapshot (:class:`RepositoryStats`)."""
        with self._lock.read_lock():
            return self._stats_locked()

    @requires_read_lock
    def _stats_locked(self):
        """Build the stats snapshot; the read lock keeps the graph /
        repository fields from being swapped mid-read by a fit."""
        morer = self._morer
        fitted = morer.repository is not None
        with self._queue_cond:
            queue_depth = len(self._queue)
        metrics = self.metrics
        counts = {
            "base_solves": metrics.solves_total.value(strategy="base"),
            "cov_solves": metrics.solves_total.value(strategy="cov"),
            "batches_dispatched": metrics.scheduler_ticks_total.value(),
            "overload_rejections": metrics.queue_rejections_total.value(
                reason="overloaded"
            ),
            "wal_records": metrics.wal_appends_total.value(),
            "wal_failures": metrics.wal_append_failures_total.value(),
            "checkpoints": metrics.checkpoints_total.value(outcome="ok"),
            "checkpoint_failures": metrics.checkpoints_total.value(
                outcome="failed"
            ),
            "unavailable_rejections": metrics.queue_rejections_total.value(
                reason="unavailable"
            ),
        }
        service = {key: int(value) for key, value in counts.items()}
        service["queue_depth"] = queue_depth
        service["max_batch_size"] = self.max_batch_size
        service["max_wait_ms"] = self.max_wait_ms
        service["max_queue_depth"] = self.max_queue_depth
        service["wal_enabled"] = self._wal is not None
        service["wal_seq"] = 0 if self._wal is None else self._wal.seq
        service["degraded"] = self._degraded_reason is not None
        service["last_checkpoint_error"] = self._last_checkpoint_error
        if not fitted:
            return RepositoryStats(fitted=False, service=service)
        return RepositoryStats(
            fitted=True,
            n_entries=len(morer.repository),
            n_problems=len(morer.problem_graph),
            total_labels_spent=morer.total_labels_spent(),
            counters=dict(morer.counters),
            timings=dict(morer.timings),
            service=service,
        )

    def healthz(self):
        """Liveness/readiness snapshot for the gateway.

        ``live`` is always true while the process answers (use
        ``/livez``); ``ready`` means "will accept mutating traffic":
        fitted, not closed, not degraded. A degraded service (WAL
        append failed) reports ``status: "degraded"`` and
        ``ready: false`` while read-only solves keep working — an
        orchestrator should drain it and restart for recovery.
        """
        with self._queue_cond:
            queue_depth = len(self._queue)
            closed = self._closed
        fitted = self._morer.repository is not None
        degraded = self._degraded_reason is not None
        if closed:
            status = "closed"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        health = {
            "status": status,
            "live": True,
            "ready": fitted and not closed and not degraded,
            "fitted": fitted,
            "queue_depth": queue_depth,
        }
        if self._wal is not None:
            health["wal"] = {
                "enabled": True,
                "seq": self._wal.seq,
                "fsync_policy": self._wal.fsync_policy,
                "degraded_reason": self._degraded_reason,
                "last_checkpoint_error": self._last_checkpoint_error,
            }
        return health

    # -- internals ---------------------------------------------------------

    def _coerce_solve_request(self, request):
        if isinstance(request, SolveRequest):
            return request
        if isinstance(request, ERProblem):
            return SolveRequest(problem=request)
        if isinstance(request, dict):
            return SolveRequest.from_dict(request)
        raise InvalidRequest(
            "solve expects a SolveRequest, an ERProblem or a request "
            f"dict, got {type(request).__name__}"
        )

    def _coerce_fit_request(self, request):
        if isinstance(request, FitRequest):
            return request
        if isinstance(request, dict):
            return FitRequest.from_dict(request)
        if isinstance(request, (list, tuple)):
            return FitRequest(problems=list(request))
        raise InvalidRequest(
            "fit expects a FitRequest, a list of problems or a request "
            f"dict, got {type(request).__name__}"
        )

    def _check_fitted(self):
        if self._morer.repository is None:
            raise NotFitted("the service has no fitted repository yet; "
                            "call fit() (or serve a loaded store)")

    def _check_features(self, problem):
        # Rejecting schema mismatches at admission keeps one bad probe
        # from poisoning a whole coalesced batch.
        if self._n_features is not None and (
            problem.n_features != self._n_features
        ):
            raise InvalidRequest(
                f"problem {problem.key} has {problem.n_features} "
                f"features; the repository's shared comparison schema "
                f"has {self._n_features}"
            )

    def _solve_base(self, problem):
        with self._lock.read_lock():
            result = self._morer.solve(problem, strategy="base")
        self.metrics.solves_total.inc(strategy="base")
        return SolveResponse.from_result(result)

    def _submit_cov(self, problem):
        return self._enqueue_cov([problem])[0].future

    def _enqueue_cov(self, problems):
        """Atomically admit several ``cov`` problems: either every one
        is queued under the capacity bound, or none is (``Overloaded``
        must never leave a prefix of a caller's batch executing)."""
        pendings = [_PendingSolve(problem) for problem in problems]
        if not pendings:
            return pendings
        with self._queue_cond:
            if self._closed:
                raise ServiceError("the service is closed")
            if len(self._queue) + len(pendings) > self.max_queue_depth:
                self.metrics.queue_rejections_total.inc(
                    reason="overloaded"
                )
                raise Overloaded(
                    f"solve queue is full ({self.max_queue_depth} "
                    "pending cov requests); retry with backoff"
                )
            self._queue.extend(pendings)
            self._queue_cond.notify_all()
        return pendings

    def _scheduler_loop(self):
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._dispatch(batch)
            self._maybe_checkpoint()

    def _collect_batch(self):
        """Block until a tick's worth of requests (or shutdown)."""
        with self._queue_cond:
            while not self._queue:
                if self._closed:
                    return None
                self._queue_cond.wait()
            if self.max_batch_size > 1 and self.max_wait_ms > 0:
                deadline = time.monotonic() + self.max_wait_ms / 1000.0
                while len(self._queue) < self.max_batch_size:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._queue_cond.wait(remaining)
            batch = self._queue[:self.max_batch_size]
            del self._queue[:len(batch)]
            return batch

    def _dispatch(self, batch):
        """One tick: one ``solve_batch`` for everything coalesced."""
        # A caller may have cancelled its future while it sat queued;
        # marking the survivors running here makes cancel() lose every
        # later race, so the resolutions below can never hit
        # InvalidStateError (which would kill the scheduler thread).
        batch = [
            pending for pending in batch
            if pending.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        started = time.perf_counter()
        try:
            results = self._solve_tick(
                [pending.problem for pending in batch]
            )
        except BaseException as exc:  # noqa: BLE001 - routed to futures; must survive
            if len(batch) == 1:
                batch[0].future.set_exception(self._translate(exc))
                return
            # A mid-batch failure (e.g. an unlabeled probe that lands
            # in an all-unseen cluster) must not fail its tick-mates:
            # fall back to one solve per request so only the offending
            # one errors. The probes are already integrated, so the
            # retries pay decisions, not integration.
            for pending in batch:
                self._dispatch_single(pending)
            return
        tick_id = self._record_tick(
            len(batch), seconds=time.perf_counter() - started,
            results=results,
        )
        for pending, result in zip(batch, results):
            response = SolveResponse.from_result(result)
            response.batch_id = tick_id
            pending.future.set_result(response)

    def _dispatch_single(self, pending):
        """Degraded per-request path after a failed coalesced tick."""
        started = time.perf_counter()
        try:
            result = self._solve_tick([pending.problem])[0]
        except BaseException as exc:  # noqa: BLE001 - resolved into request's future
            pending.future.set_exception(self._translate(exc))
            return
        tick_id = self._record_tick(
            1, seconds=time.perf_counter() - started, results=[result],
        )
        response = SolveResponse.from_result(result)
        response.batch_id = tick_id
        pending.future.set_result(response)

    def _solve_tick(self, problems):
        """One write-locked ``solve_batch``; the lazy search caches are
        re-flushed even when a probe's decision raises (earlier batch
        members may already have retrained or registered entries that
        read-lock searches must not rebuild concurrently).

        Write-ahead: the tick's probes are appended to the WAL (and
        fsynced per policy) *before* any decision is taken, so every
        acked decision is replayable. An append failure fails the tick
        with :class:`Unavailable` and degrades the service."""
        with self._lock.write_lock():
            self._wal_append({
                "kind": "solve_batch",
                "problems": [problem.to_dict() for problem in problems],
            })
            try:
                results = self._morer.solve_batch(problems, strategy="cov")
            finally:
                self._after_mutation()
            return results

    @requires_write_lock
    def _wal_append(self, payload):
        """Append one record (no-op without a WAL); on failure flip to
        degraded and raise :class:`Unavailable`. The WAL's seq only
        advances on success, so a failed append leaves no gap.

        Write-lock-marked: appends must be ordered against the solve /
        fit they log, and the WAL object itself is not thread-safe."""
        if self._wal is None:
            return None
        if self._degraded_reason is not None:
            raise Unavailable(
                "the service is degraded (WAL append failed: "
                f"{self._degraded_reason}); mutations are rejected"
            )
        started = time.perf_counter()
        try:
            seq = self._wal.append(payload)
        except (WALError, OSError, InjectedFault) as exc:
            self._enter_degraded(str(exc) or repr(exc))
            self.metrics.wal_append_failures_total.inc()
            raise Unavailable(
                "WAL append failed; durability lost — mutations are "
                f"rejected, read-only solves continue ({exc})"
            ) from exc
        self.metrics.wal_appends_total.inc()
        self.metrics.wal_append_seconds.observe(
            time.perf_counter() - started
        )
        return seq

    def _check_durable(self):
        """Reject mutations while degraded: a decision taken now would
        be missing from the WAL, so a post-crash replay could not
        reproduce it — refusing is the honest failure mode."""
        if self._wal is not None and self._degraded_reason is not None:
            self.metrics.queue_rejections_total.inc(reason="unavailable")
            raise Unavailable(
                "the service is degraded (WAL append failed: "
                f"{self._degraded_reason}); mutating operations are "
                "rejected — restart the server to recover"
            )

    #: Consecutive scheduler-checkpoint failures before the service
    #: turns degraded: a persistently unsavable store (full disk, bad
    #: permissions) would otherwise grow the WAL without bound while
    #: healthz kept reporting ok.
    CHECKPOINT_FAILURE_LIMIT = 3

    def _maybe_checkpoint(self):
        """Scheduler-driven checkpoint every ``checkpoint_every``
        appended records. :meth:`save` records each outcome; a failure
        is logged here and — after :data:`CHECKPOINT_FAILURE_LIMIT` in
        a row — degrades the service, but never kills the scheduler
        thread."""
        if (
            self._wal is None
            or self.checkpoint_every <= 0
            or self._checkpoint_store is None
            or self._degraded_reason is not None
        ):
            return
        if self._wal.seq - self._last_checkpoint_seq < self.checkpoint_every:
            return
        try:
            saved = self.save(self._checkpoint_store)
        except Exception:  # noqa: BLE001 - scheduler must survive; save recorded it
            saved = False
        if saved:
            self._checkpoint_fail_streak = 0
            return
        self._checkpoint_fail_streak += 1
        print(
            f"checkpoint to {self._checkpoint_store} failed "
            f"({self._checkpoint_fail_streak} consecutive): "
            f"{self._last_checkpoint_error}",
            file=sys.stderr, flush=True,
        )
        if self._checkpoint_fail_streak >= self.CHECKPOINT_FAILURE_LIMIT:
            self._enter_degraded(
                f"{self._checkpoint_fail_streak} consecutive "
                f"checkpoint failures (last: "
                f"{self._last_checkpoint_error}); the WAL cannot be "
                "truncated"
            )

    def _record_tick(self, n_solves, seconds=0.0, results=None):
        """Account one dispatched tick; returns its id (the batch id
        stamped on every response the tick produced). Runs on the
        scheduler thread before the tick's futures resolve, so a caller
        holding its response finds stats() already counting it."""
        self._tick_seq += 1
        metrics = self.metrics
        metrics.scheduler_ticks_total.inc()
        metrics.scheduler_coalesced_requests_total.inc(n_solves)
        metrics.scheduler_tick_seconds.observe(seconds)
        metrics.scheduler_batch_size.observe(n_solves)
        metrics.solves_total.inc(n_solves, strategy="cov")
        for result in results or ():
            if result.retrained:
                decision = "retrain"
            elif result.new_model:
                decision = "new_model"
            else:
                decision = "reuse"
            metrics.solve_decisions_total.inc(decision=decision)
        return self._tick_seq

    @requires_write_lock
    def _after_mutation(self):
        """Write-lock-held bookkeeping after fit / cov / load.

        Flushes the repository's lazy search caches (so read-lock
        ``sel_base`` searches stay non-mutating) and pins the shared
        comparison schema the first time a graph exists.
        """
        morer = self._morer
        if morer.repository is not None:
            morer.repository.prepare_search()
        graph = morer.problem_graph
        if graph is not None and self._n_features is None and len(graph):
            self._n_features = next(
                iter(graph.problems().values())
            ).n_features

    def _translate(self, exc):
        if isinstance(exc, ServiceError):
            return exc
        if isinstance(exc, NotFittedError):
            return NotFitted(str(exc))
        # Only ValueError is a client-caused condition in core (bad
        # shapes, missing labels, unknown strategies); KeyError and
        # friends signal internal inconsistencies and must surface as
        # internal errors (HTTP 500), not blame the request.
        if isinstance(exc, ValueError):
            return InvalidRequest(str(exc))
        return exc

    def _enter_degraded(self, reason):
        """Flip to degraded mode (idempotent), counting the
        transition. Degraded mode clears only on restart, so the first
        reason wins — later failures are symptoms of the same outage."""
        if self._degraded_reason is None:
            self._degraded_reason = reason
            self.metrics.degraded_transitions_total.inc()

    def _collect_metrics(self):
        """Pull-time gauges, refreshed at every ``/metrics`` scrape.

        Runs on the scraping thread without the service locks (a
        scrape must never queue behind a fit): the reads are single
        attribute/len lookups that are safe under the GIL, and a
        value torn across a concurrent mutation is acceptable for
        monitoring.
        """
        metrics = self.metrics
        with self._queue_cond:
            depth = len(self._queue)
        metrics.queue_depth.set(depth)
        metrics.degraded.set(
            1.0 if self._degraded_reason is not None else 0.0
        )
        wal = self._wal
        if wal is not None:
            metrics.wal_seq.set(wal.seq)
            metrics.wal_fsyncs_total.set_total(wal.fsyncs)
            metrics.wal_fsync_seconds_total.set_total(wal.fsync_seconds)
        morer = self._morer
        try:
            if morer.repository is not None:
                metrics.repository_entries.set(len(morer.repository))
                metrics.labels_spent.set(morer.total_labels_spent())
            if morer.problem_graph is not None:
                metrics.graph_problems.set(len(morer.problem_graph))
        except Exception:  # noqa: BLE001 - mid-mutation scrape
            pass
