"""Spans around the public calls of each layer, recorded from outside.

:func:`install` wraps the layer functions listed in :data:`LAYER_CALLS`
(the program itself is not edited). Every call becomes a span
``[id, parent, name, start, end, thread, attrs]``: the parent is the
innermost open span of the same thread, times are
``time.perf_counter()`` seconds, and ``attrs`` carries request identity
(client id and per-client sequence number, or problem keys) plus counts
read where the work happens. Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

_INHERITED = object()


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._sequences = {}
        #: Probe-signature lookups made inside a repository search, and
        #: how many the LRU served (no signature build).
        self.probe_lookups = 0
        self.probe_hits = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    def next_seq(self, client_id):
        """Per-client request sequence number (request identity shared
        by the client and server sides of one HTTP call)."""
        with self._lock:
            seq = self._sequences.get(client_id, 0) + 1
            self._sequences[client_id] = seq
        return seq

    def call(self, name, func, args, kwargs, before=None, after=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        attrs = before(*args, **kwargs) if before is not None else None
        stack.append((span_id, name))
        started = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            ended = time.perf_counter()
            stack.pop()
            attrs = dict(attrs or {})
            attrs["error"] = type(exc).__name__
            self.spans.append([span_id, parent, name, started, ended,
                               threading.current_thread().name, attrs])
            raise
        ended = time.perf_counter()
        stack.pop()
        if after is not None:
            attrs = after(attrs, result, *args, **kwargs)
        self.spans.append([span_id, parent, name, started, ended,
                           threading.current_thread().name, attrs])
        return result

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` (a class or module attribute) with a
        span-recording wrapper; :meth:`uninstall` restores it."""
        raw = vars(owner).get(attr, getattr(owner, attr))
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if binder is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, args, kwargs, before, after)

        self.patch(owner, attr, binder(wrapper) if binder else wrapper)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr``, remembering what to restore (an attribute
        a class only inherits is deleted again)."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "probe_lookups": self.probe_lookups,
                "probe_hits": self.probe_hits,
            }, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)


# -- attribute extractors -------------------------------------------------


def _key(problem):
    return "|".join(problem.key)


def _request_key(request):
    if isinstance(request, dict):
        problem = request.get("problem", request)
        if isinstance(problem, dict) and "source_a" in problem:
            return "|".join(sorted((str(problem["source_a"]),
                                    str(problem["source_b"]))))
        return None
    problem = getattr(request, "problem", request)
    return _key(problem) if hasattr(problem, "key") else None


def _request_strategy(request):
    if isinstance(request, dict):
        return request.get("strategy")
    return getattr(request, "strategy", None)


def _submit_attrs(_self, request, *args, **kwargs):
    return {"key": _request_key(request),
            "strategy": _request_strategy(request)}


def _batch_request_attrs(_self, requests, *args, **kwargs):
    return {"keys": [key for key in map(_request_key, requests) if key]}


def _batch_attrs(_self, problems, *args, **kwargs):
    problems = list(problems)
    return {"keys": [_key(p) for p in problems]}


def _batch_list(func):
    """``MoRER.solve_batch`` takes any iterable; materialise it once so
    the attrs and the real call see the same problems."""
    @functools.wraps(func)
    def wrapper(self, problems, *args, **kwargs):
        return func(self, list(problems), *args, **kwargs)
    return wrapper


def _wal_attrs(_self, payload, *args, **kwargs):
    problems = payload.get("problems") or ()
    return {"kind": payload.get("kind"),
            "keys": ["|".join(sorted((p["source_a"], p["source_b"])))
                     for p in problems]}


def _graph_insert_before(graph, problems, *args, **kwargs):
    return {"evals": graph.stats["pair_evals"]}


def _graph_insert_after(attrs, _result, graph, problems, *args, **kwargs):
    try:
        n = len(problems)
    except TypeError:
        n = 1
    return {"n": n, "evals": graph.stats["pair_evals"] - attrs["evals"]}


def _graph_insert_one_after(attrs, _result, graph, problem, *args, **kwargs):
    return {"n": 1, "evals": graph.stats["pair_evals"] - attrs["evals"]}


def _decision_after(attrs, result, *args, **kwargs):
    return {"retrained": bool(result.retrained),
            "new_model": bool(result.new_model)}


def _replay_after(attrs, result, *args, **kwargs):
    return {"outcome": result is not None}


def _recover_after(attrs, result, *args, **kwargs):
    _morer, report = result
    return {"records": report.n_replayed}


def _client_before(tracer, client, *args, **kwargs):
    return {"client": client.client_id,
            "seq": tracer.next_seq(client.client_id)}


def _handler_before(tracer, handler, *args, **kwargs):
    client = (handler.headers.get("X-Client-Id") or "").strip()
    return {"client": client, "seq": tracer.next_seq(client),
            "path": handler.path.split("?", 1)[0]}


def _signature_counter(tracer, func):
    @functools.wraps(func)
    def wrapper(store, key, features):
        if tracer.current_name() != "repository.search":
            return func(store, key, features)
        builds = store.builds
        signature = func(store, key, features)
        with tracer._lock:
            tracer.probe_lookups += 1
            tracer.probe_hits += int(store.builds == builds)
        return signature
    return wrapper


#: ``(module, owner, attribute, span name, before, after)``: the public
#: call of each layer that gets a span. ``owner`` None means a module
#: function.
LAYER_CALLS = [
    ("repro.service.client", "ServiceClient", "solve", "client.solve",
     _client_before, None),
    ("repro.service.client", "ServiceClient", "metrics", "client.metrics",
     _client_before, None),
    ("repro.service.http", "_GatewayHandler", "handle", "http.connection",
     None, None),
    ("repro.service.http", "_GatewayHandler", "do_POST", "http.request",
     _handler_before, None),
    ("repro.service.http", "_GatewayHandler", "do_GET", "http.request",
     _handler_before, None),
    ("repro.service.limiter", "RateLimiter", "check", "limiter.check",
     None, None),
    ("repro.service.service", "MoRERService", "solve", "service.solve",
     None, None),
    ("repro.service.service", "MoRERService", "submit", "service.submit",
     _submit_attrs, None),
    ("repro.service.service", "MoRERService", "solve_batch",
     "service.solve_batch", _batch_request_attrs, None),
    ("repro.service.service", "MoRERService", "solve_batch_envelopes",
     "service.solve_batch", _batch_request_attrs, None),
    ("repro.service.service", "MoRERService", "save", "service.save",
     None, None),
    ("repro.service.rwlock", "ReadWriteLock", "acquire_read",
     "rwlock.read_wait", None, None),
    ("repro.service.rwlock", "ReadWriteLock", "acquire_write",
     "rwlock.write_wait", None, None),
    ("repro.durability.wal", "WriteAheadLog", "append", "wal.append",
     _wal_attrs, None),
    ("repro.durability.wal", "WriteAheadLog", "checkpoint", "wal.checkpoint",
     None, None),
    ("repro.core.graph", "ERProblemGraph", "build", "graph.build",
     None, None),
    ("repro.core.graph", "ERProblemGraph", "add_problems", "graph.insert",
     _graph_insert_before, _graph_insert_after),
    ("repro.core.graph", "ERProblemGraph", "add_problem", "graph.insert",
     _graph_insert_before, _graph_insert_one_after),
    ("repro.core.graph", "ERProblemGraph", "export_state", "graph.export",
     None, None),
    ("repro.core.graph", "ERProblemGraph", "restore_state", "graph.restore",
     None, None),
    ("repro.core.graph", "ERProblemGraph", "cluster", "graphcluster.full",
     None, None),
    ("repro.core.partition_state", "PartitionState", "replay",
     "partition_state.replay", None, _replay_after),
    ("repro.core.partition_state", "PartitionState", "accept",
     "partition_state.accept", None, None),
    ("repro.core.morer", None, "decide_cov", "selection.decide",
     None, _decision_after),
    ("repro.core.selection", None, "decide_cov", "selection.decide",
     None, _decision_after),
    ("repro.baselines.bootstrap", "BootstrapActiveLearner", "select",
     "bootstrap.select", None, None),
    ("repro.ml.forest", "RandomForestClassifier", "fit", "ml.fit",
     None, None),
    ("repro.ml.forest", "BaggingClassifier", "fit", "ml.fit", None, None),
    ("repro.core.repository", "ModelRepository", "search",
     "repository.search", None, None),
    ("repro.core.repository", "ClusterEntry", "predict",
     "repository.predict", None, None),
    ("repro.core.repository", "ModelRepository", "save", "repository.save",
     None, None),
    ("repro.core.repository", "ModelRepository", "load", "repository.load",
     None, None),
    ("repro.core.morer", "MoRER", "fit", "morer.fit", None, None),
    ("repro.core.morer", "MoRER", "solve", "morer.solve", None, None),
    ("repro.core.morer", "MoRER", "solve_batch", "morer.solve_batch",
     _batch_attrs, None),
    ("repro.core.morer", "MoRER", "save", "morer.save", None, None),
    ("repro.core.morer", "MoRER", "load", "morer.load", None, None),
    ("repro.durability.recovery", None, "load_snapshot",
     "recovery.load_snapshot", None, None),
    ("repro.durability.recovery", None, "recover", "recovery.recover",
     None, _recover_after),
]


def install():
    """Wrap every call in :data:`LAYER_CALLS`; returns the tracer."""
    tracer = Tracer()
    for module_name, owner_name, attr, name, before, after in LAYER_CALLS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        if before in (_client_before, _handler_before):
            # Request identity: both sides of an HTTP call number the
            # requests of one client id in the same order.
            before = functools.partial(before, tracer)
        tracer.wrap(owner, attr, name, before, after)
    from repro.core.morer import MoRER
    tracer.patch(MoRER, "solve_batch", _batch_list(MoRER.solve_batch))
    durability = importlib.import_module("repro.durability")
    recovery = importlib.import_module("repro.durability.recovery")
    tracer.patch(durability, "recover", recovery.recover)
    from repro.core.signatures import SignatureStore
    tracer.patch(SignatureStore, "signature",
                 _signature_counter(tracer, SignatureStore.signature))
    return tracer
