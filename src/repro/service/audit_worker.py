"""Background audit workers: reconstruction auditing off the hot path.

The E18 experiments put the cost of inline auditing at two orders of
magnitude over plain serving — every ``audit_every`` checkpoint stalls the
analyst's serving thread for an l2/LP replay pass.  *Linear Program
Reconstruction in Practice* (PAPERS.md) is the reason the auditing cannot
simply be turned off: the attack is cheap enough that the transcript must
be watched continuously.  This module resolves the tension by moving the
*passes* (not the evidence) off the hot path: the serve path's
AuditAppend step (:class:`~repro.service.pipeline.ServePipeline`) still
appends every release synchronously — the log stays the complete attack
transcript — and then hands the "this analyst may have crossed a
checkpoint" signal to an :class:`AuditDispatch`.

Three dispatches:

:class:`InlineAuditDispatch`
    Runs :meth:`~repro.service.audit.ReconstructionAuditor.maybe_audit`
    on the serving thread — the pre-refactor behavior, and the default,
    so E18's golden headlines are untouched.
:class:`AuditWorkerPool`
    Background worker threads, one queue per analyst shard
    (:func:`~repro.privacy.accounting.stable_shard` routing, the same
    partitioner the sharded accountant uses).  Workers tail the
    append-only :class:`~repro.service.audit.AuditLog` and run the same
    passes the inline path would; verdicts publish
    through the *existing* circuit breaker
    (``ReconstructionAuditor._tripped``), so a tripped analyst is refused
    by the very next request's Compliance step.  Because an analyst's
    checkpoints always land on the same shard queue, passes for one
    analyst never run concurrently — the auditor sees the same
    one-pass-at-a-time discipline as inline dispatch, and a drained pool
    (:meth:`~AuditWorkerPool.flush`) has produced bit-identical reports.
    What background dispatch trades is *latency*, not evidence: an
    analyst can slip in the few extra queries that arrive while their
    pass is in flight.
:class:`NullAuditDispatch`
    No auditor configured; appends are evidence only.
"""

from __future__ import annotations

import itertools
import queue
import threading
import warnings
from abc import ABC, abstractmethod

from repro.privacy.accounting import stable_shard
from repro.service.audit import AuditLog, ReconstructionAuditor
from repro.telemetry.instrument import (
    AUDIT_ERRORS,
    AUDIT_ESCALATIONS,
    AUDIT_PASS_SECONDS,
    AUDIT_QUEUE_DEPTH,
    AUDIT_QUEUE_DEPTH_PEAK,
    BREAKER_TRIPS,
)

__all__ = [
    "AuditDispatch",
    "AuditWorkerPool",
    "InlineAuditDispatch",
    "NullAuditDispatch",
    "resolve_audit_dispatch",
]

#: Background worker threads per pool unless ``workers`` says otherwise.
DEFAULT_AUDIT_WORKERS = 2


class AuditDispatch(ABC):
    """Where a post-append "checkpoint may be due" signal goes."""

    @abstractmethod
    def after_append(self, log: AuditLog, analyst: str) -> None:
        """Called by the AuditAppend step after fresh records land."""

    def flush(self, timeout: float | None = None) -> bool:
        """Wait until every signalled pass has run (no-op inline)."""
        return True

    def close(self) -> None:
        """Release dispatch resources (no-op inline)."""


class NullAuditDispatch(AuditDispatch):
    """No auditor: appends are evidence only, nothing to run."""

    def after_append(self, log: AuditLog, analyst: str) -> None:
        pass


class InlineAuditDispatch(AuditDispatch):
    """Run due passes on the serving thread (pre-refactor behavior)."""

    __slots__ = ("_auditor",)

    def __init__(self, auditor: ReconstructionAuditor):
        self._auditor = auditor

    def after_append(self, log: AuditLog, analyst: str) -> None:
        self._auditor.maybe_audit(log, analyst)


class AuditWorkerPool(AuditDispatch):
    """Daemon worker threads tailing the audit log per analyst shard.

    Signals are deduplicated per ``(log, analyst)`` while queued — a burst
    of appends costs one pass, and the pass itself re-reads the log, so it
    always audits the freshest transcript.  The pending mark is dropped
    *before* the pass runs: appends landing mid-pass re-enqueue, so no
    checkpoint is ever silently skipped.

    Args:
        auditor: the shared :class:`ReconstructionAuditor` verdicts
            publish through.
        workers: worker-thread count (default
            :data:`DEFAULT_AUDIT_WORKERS`).  Analysts are partitioned
            over workers by :func:`stable_shard`, which serializes each
            analyst's passes.
    """

    #: Distinguishes pools living in one shared registry (CI smoke, env
    #: default): each pool's metrics carry a stable ``pool=<n>`` label.
    _pool_ids = itertools.count()

    def __init__(
        self,
        auditor: ReconstructionAuditor,
        workers: int = DEFAULT_AUDIT_WORKERS,
        telemetry=None,
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self._auditor = auditor
        self._cond = threading.Condition()
        self._pending: set[tuple[int, str]] = set()
        self._inflight = 0
        self._closed = False
        self._errors: list[BaseException] = []
        self._telemetry = None
        self.depth_peak = 0
        if telemetry is not None and getattr(telemetry, "enabled", False):
            self.bind_telemetry(telemetry)
        self._queues: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._run,
                args=(q,),
                name=f"repro-audit-{i}",
                daemon=True,
            )
            for i, q in enumerate(self._queues)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def auditor(self) -> ReconstructionAuditor:
        return self._auditor

    @property
    def workers(self) -> int:
        return len(self._queues)

    @property
    def errors(self) -> tuple[BaseException, ...]:
        """Exceptions raised by background passes (kept, never fatal)."""
        with self._cond:
            return tuple(self._errors)

    def bind_telemetry(self, telemetry) -> None:
        """Register this pool's queue/pass metrics (idempotent).

        Every shard server sharing one pool calls in; the first bind wins.
        Depth and error counts are snapshot-time callbacks over state the
        pool already maintains, so the signal path pays nothing; pass
        latency, escalations, and breaker trips are recorded on the worker
        threads, off the serving hot path.
        """
        if self._telemetry is not None or not getattr(telemetry, "enabled", False):
            return
        registry = telemetry.registry
        pool = str(next(AuditWorkerPool._pool_ids))
        registry.gauge_fn(
            AUDIT_QUEUE_DEPTH, lambda: float(self._inflight), pool=pool
        )
        registry.gauge_fn(
            AUDIT_QUEUE_DEPTH_PEAK, lambda: float(self.depth_peak), pool=pool
        )
        registry.counter_fn(
            AUDIT_ERRORS, lambda: float(len(self._errors)), pool=pool
        )
        self._pass_hist = {
            "cold": registry.histogram(AUDIT_PASS_SECONDS, pool=pool, warm="cold"),
            "warm": registry.histogram(AUDIT_PASS_SECONDS, pool=pool, warm="warm"),
        }
        self._escalations = registry.counter(AUDIT_ESCALATIONS, pool=pool)
        self._trips = registry.counter(BREAKER_TRIPS, pool=pool)
        # Published last: a worker records a pass only once every
        # instrument above exists, so a pool already serving can be bound.
        self._telemetry = telemetry

    def after_append(self, log: AuditLog, analyst: str) -> None:
        key = (id(log), analyst)
        with self._cond:
            if self._closed:
                closed = True
            else:
                closed = False
                if key in self._pending:
                    return
                self._pending.add(key)
                self._inflight += 1
                if self._inflight > self.depth_peak:
                    self.depth_peak = self._inflight
        if closed:
            # Late signals after shutdown still get their verdicts — they
            # just pay for the pass inline, like the pre-refactor path.
            self._auditor.maybe_audit(log, analyst)
            return
        shard = stable_shard(analyst, len(self._queues))
        self._queues[shard].put((log, analyst))

    def _run(self, jobs: queue.SimpleQueue) -> None:
        while True:
            item = jobs.get()
            if item is None:
                return
            log, analyst = item
            with self._cond:
                self._pending.discard((id(log), analyst))
            try:
                report = self._auditor.maybe_audit(log, analyst)
                if self._telemetry is not None and report is not None:
                    self._record_pass(report)
            except BaseException as error:  # a failed pass must not kill the tail
                with self._cond:
                    self._errors.append(error)
                warnings.warn(
                    f"background audit pass for {analyst!r} failed ({error!r})",
                    RuntimeWarning,
                    stacklevel=2,
                )
            finally:
                with self._cond:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._cond.notify_all()

    def _record_pass(self, report) -> None:
        """Record one completed pass: latency (cold/warm), escalation, trip.

        "Warm" means the auditor's stored solution for that analyst
        (``warm_start_passes``) reached a decoder that reads it
        (:attr:`~repro.service.audit.AuditReport.warm_started`), so its
        latency belongs in a separate histogram.
        """
        self._pass_hist["warm" if report.warm_started else "cold"].observe(
            float(report.elapsed_seconds)
        )
        if report.escalated:
            self._escalations.inc()
        if report.flagged:
            self._trips.inc()

    def flush(self, timeout: float | None = None) -> bool:
        """Block until every signalled pass has completed.

        After a clean flush, the auditor's reports and breaker state are
        bit-identical to what inline dispatch would have produced for the
        same append sequence.  Returns ``False`` on timeout.
        """
        with self._cond:
            return self._cond.wait_for(lambda: self._inflight == 0, timeout)

    def close(self) -> None:
        """Drain, stop the workers, and switch to inline fallback."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        self.flush()
        for q in self._queues:
            q.put(None)
        for thread in self._threads:
            thread.join()


def resolve_audit_dispatch(
    audit_dispatch: str | AuditDispatch | None,
    auditor: ReconstructionAuditor | None,
) -> AuditDispatch:
    """Normalize an ``audit_dispatch`` argument into a dispatch instance.

    An explicit :class:`AuditDispatch` instance passes through untouched;
    otherwise ``"inline"`` (default) or ``"background"`` select the
    built-in dispatches over ``auditor`` — which, when ``None``, always
    yields the do-nothing :class:`NullAuditDispatch`.
    """
    if isinstance(audit_dispatch, AuditDispatch):
        return audit_dispatch
    if auditor is None:
        return NullAuditDispatch()
    if audit_dispatch is None or audit_dispatch == "inline":
        return InlineAuditDispatch(auditor)
    if audit_dispatch == "background":
        return AuditWorkerPool(auditor)
    raise ValueError(
        f"unknown audit dispatch {audit_dispatch!r}; "
        "known: 'inline', 'background', or an AuditDispatch instance"
    )
