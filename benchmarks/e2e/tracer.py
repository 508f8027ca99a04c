"""A small call tracer that measures the program's layers from outside.

The benchmark's traced run wraps public callables of :mod:`repro` (listed
in :data:`WRAP_TARGETS`) for the duration of one workload and restores the
originals afterwards, so no file under ``src/`` carries measuring code.
It deliberately does not use :mod:`repro.telemetry`: the code that
measures must not change when the measured code does.

Each wrapped call is a span.  A thread-local stack gives every span its
parent; a call nested directly inside a span of the same name (a cache
view delegating to the cache it wraps) is not counted twice.  For every
span name the tracer aggregates calls, total and child time, raised
exceptions and every duration (for percentiles), plus the time each
parent spent in each child.  Every :data:`SAMPLE_EVERY`-th root span per
thread keeps its whole tree in memory for writing out at the end.

A target that no longer resolves (a deleted module, class or function) is
reported as missing and never raised, so code removals do not break
``--trace``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from array import array

#: Metric name -> ``module:attribute.path``.  A name may list several
#: targets (both session classes answer ``server.ask``).
WRAP_TARGETS: tuple[tuple[str, str], ...] = (
    ("server.session", "repro.service.server:QueryServer.session"),
    ("server.session", "repro.service.sharded:ShardedQueryServer.session"),
    ("server.ask", "repro.service.server:AnalystSession.ask"),
    ("server.ask", "repro.service.sharded:ShardedAnalystSession.ask"),
    ("server.ask_workload", "repro.service.server:AnalystSession.ask_workload"),
    ("server.ask_workload", "repro.service.sharded:ShardedAnalystSession.ask_workload"),
    ("cache.fingerprint", "repro.service.pipeline:fingerprint_and_packed"),
    ("cache.get", "repro.service.cache:AnswerCache.get"),
    ("cache.get", "repro.service.cache:AnalystCacheView.get"),
    ("cache.put", "repro.service.cache:AnswerCache.put"),
    ("cache.put", "repro.service.cache:AnalystCacheView.put"),
    ("accounting.acquire", "repro.privacy.accounting:BudgetLease.acquire"),
    ("mechanism.answer", "repro.queries.mechanism:QueryAnswerer.answer"),
    ("mechanism.answer_workload", "repro.queries.mechanism:QueryAnswerer.answer_workload"),
    ("audit_log.append", "repro.service.audit:AuditLog.append"),
    ("auditor.l2_screen", "repro.service.audit:l2_decode"),
    ("auditor.lp", "repro.service.audit:reconstruct_from_answers"),
    ("audit_worker.signal", "repro.service.audit_worker:AuditWorkerPool.after_append"),
    ("audit_worker.flush", "repro.service.audit_worker:AuditWorkerPool.flush"),
    ("compliance.require", "repro.compliance.gate:ComplianceGate.require"),
    ("sharding.reconstruct", "repro.reconstruction.sharding:ShardedReconstructor.reconstruct"),
    ("sharding.discover", "repro.reconstruction.sharding:BlockPartition.from_workload"),
    ("l2.decode_batch", "repro.reconstruction.sharding:l2_decode_batch"),
    ("lp.escalation", "repro.reconstruction.sharding:reconstruct_from_answers"),
)

#: Keep the whole span tree of every this-many-th root span per thread.
SAMPLE_EVERY = 1000

#: A percentile is reported only with at least ten samples beyond it.
P99_MIN_CALLS = 1000

_ABSENT = object()


class _Aggregate:
    """One span name's totals on one thread."""

    __slots__ = ("calls", "total_s", "child_s", "errors", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.errors = 0
        self.durations = array("d")


class _ThreadState:
    """Per-thread stack and aggregates: the hot path takes no lock."""

    __slots__ = ("ident", "stack", "aggregates", "edges", "roots", "root_s", "trees")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: list[list] = []
        self.aggregates: dict[str, _Aggregate] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.roots = 0
        self.root_s = 0.0
        self.trees: list[dict] = []


class Tracer:
    """Wraps :data:`WRAP_TARGETS` between :meth:`install` and :meth:`uninstall`.

    Args:
        targets: the ``(name, "module:attr.path")`` table to wrap.
    """

    def __init__(self, targets: tuple[tuple[str, str], ...] = WRAP_TARGETS):
        self.targets = targets
        self.missing: list[tuple[str, str, str]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()

    # -- installing ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every resolvable target; record the rest in :attr:`missing`."""
        for name, path in self.targets:
            try:
                owner, attr, raw, descriptor = _resolve(path)
            except (ImportError, AttributeError) as error:
                self.missing.append((name, path, f"{type(error).__name__}: {error}"))
                continue
            wrapped = self._wrap_raw(name, descriptor)
            if wrapped is None:
                self.missing.append((name, path, "not callable"))
                continue
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        """Put back every original, in reverse order of wrapping."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap_raw(self, name: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, raw.__func__))
        if callable(raw):
            return self._wrap(name, raw)
        return None

    # -- the span wrapper ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, name: str, func):
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return func(*args, **kwargs)
            if parent is None:
                state.roots += 1
                children = [] if state.roots % SAMPLE_EVERY == 0 else None
            else:
                children = [] if parent[2] is not None else None
            # frame: [name, child seconds, sampled children or None]
            frame = [name, 0.0, children]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                aggregate = state.aggregates.get(name)
                if aggregate is None:
                    aggregate = state.aggregates[name] = _Aggregate()
                aggregate.calls += 1
                aggregate.total_s += elapsed
                aggregate.child_s += frame[1]
                aggregate.errors += failed
                aggregate.durations.append(elapsed)
                if parent is None:
                    state.root_s += elapsed
                    if children is not None:
                        state.trees.append(_span(name, start, end, children, state.roots))
                else:
                    parent[1] += elapsed
                    edge = (parent[0], name)
                    state.edges[edge] = state.edges.get(edge, 0.0) + elapsed
                    if children is not None:
                        parent[2].append(_span(name, start, end, children, None))

        return traced

    # -- reading -------------------------------------------------------------

    def thread_root_seconds(self) -> float:
        """Time the calling thread has spent inside root spans so far."""
        return self._state().root_s

    def summary(self) -> dict:
        """Every span name's merged aggregates across threads.

        ``{name: {calls, total_s, self_s (total less wrapped children),
        errors, p50_us, p99_us (with at least P99_MIN_CALLS calls)}}``.
        """
        with self._states_lock:
            states = list(self._states)
        merged: dict[str, _Aggregate] = {}
        for state in states:
            for name, aggregate in state.aggregates.items():
                into = merged.setdefault(name, _Aggregate())
                into.calls += aggregate.calls
                into.total_s += aggregate.total_s
                into.child_s += aggregate.child_s
                into.errors += aggregate.errors
                into.durations.extend(aggregate.durations)
        out = {}
        for name, aggregate in merged.items():
            entry = {
                "calls": aggregate.calls,
                "total_s": aggregate.total_s,
                "self_s": aggregate.total_s - aggregate.child_s,
                "errors": aggregate.errors,
            }
            durations = sorted(aggregate.durations)
            entry["p50_us"] = 1e6 * statistics.median(durations)
            if aggregate.calls >= P99_MIN_CALLS:
                entry["p99_us"] = 1e6 * durations[int(0.99 * (len(durations) - 1))]
            out[name] = entry
        return out

    def edges(self) -> dict[tuple[str, str], float]:
        """Seconds each parent span spent in each directly nested child."""
        with self._states_lock:
            states = list(self._states)
        merged: dict[tuple[str, str], float] = {}
        for state in states:
            for edge, seconds in state.edges.items():
                merged[edge] = merged.get(edge, 0.0) + seconds
        return merged

    def trees(self) -> list[dict]:
        """The sampled root span trees, per thread in completion order."""
        with self._states_lock:
            states = list(self._states)
        return [
            {"thread": state.ident, **tree} for state in states for tree in state.trees
        ]


def _span(name: str, start: float, end: float, children: list, root: int | None) -> dict:
    span = {"name": name, "start": start, "end": end, "children": children}
    if root is not None:
        span["root"] = root
    return span


def _resolve(path: str) -> tuple[object, str, object, object]:
    """``(owner, attribute, own value, descriptor)`` for ``module:attr.path``.

    Both values are read without the descriptor protocol, so classmethod
    and staticmethod targets survive a wrap/restore round trip.  The own
    value is ``_ABSENT`` when the owner only inherits the attribute; the
    wrapper is then deleted again on restore.
    """
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    descriptor = inspect.getattr_static(owner, attr)  # AttributeError when gone
    return owner, attr, vars(owner).get(attr, _ABSENT), descriptor


class NullTracer:
    """The untraced stand-in: workloads call the same reading method."""

    def thread_root_seconds(self) -> float:
        return 0.0
