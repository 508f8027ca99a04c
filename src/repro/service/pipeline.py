"""The serve path: one straight-line driver per request shape.

Every server (:class:`~repro.service.server.QueryServer`, each shard of
the sharded front end) serves a request by the same fixed steps::

    Admission -> Compliance -> CacheLookup -> BudgetReserve -> Execute
              -> CachePut -> AuditAppend (commit, then audit dispatch)

:meth:`ServePipeline.serve_single` runs them for one query and
:meth:`ServePipeline.serve_workload` once for a whole batch, as plain
code in step order.  Admission runs only for a sharded session's
:class:`AdmissionControl`, before the per-analyst lock; every later step
runs inside it.  Execute calls the analyst's answerer on the serving
thread: a thread pool or a fork pool measured slower on one core and two.

**A logged answer is always a charged answer.**  BudgetReserve takes a
:class:`~repro.privacy.accounting.BudgetLease`; AuditAppend commits it as
soon as the records are in the log, before the audit dispatch runs, and
a request that leaves its driver without that commit rolls it back.  So
no budget burns for an answer never released, and an audit pass failing
after the append refunds nothing already released.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.privacy.accounting import BudgetExhausted, BudgetLease
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service.cache import fingerprint_and_packed, workload_fingerprints_packed
from repro.telemetry.instrument import (
    ADMISSION_REJECTS,
    REQUESTS_TOTAL,
    STAGE_SECONDS,
    analyst_digest_prefix,
)

if TYPE_CHECKING:
    from repro.service.server import QueryServer

#: Fused cache hits are latency-sampled every ``mask + 1`` hits, the first
#: hit included; ``2**k - 1`` so the sampling test is one AND.
_HIT_SAMPLE_MASK = 7

#: The steps inside the analyst lock, in order; each names its latency
#: histogram (``stage`` label) when telemetry is on.
_STEPS = ("compliance", "cache_lookup", "budget_reserve", "execute", "cache_put", "audit_append")

__all__ = ["AdmissionControl", "ServePipeline"]


class AdmissionControl:
    """The Admission step: token bucket + in-flight gate, pre-lock.

    Zero budget, cache, and audit footprint: a rejected request never
    reached the mechanism.  Duck-typed over the sharded front end's bucket
    (``admit(analyst)``) and gate (``acquire(analyst)``/``release()``).
    """

    __slots__ = ("bucket", "gate")

    def __init__(self, bucket=None, gate=None):
        self.bucket = bucket
        self.gate = gate

    def enter(self, analyst: str) -> None:
        """Admit or raise (:class:`~repro.service.sharded.Rejected`)."""
        if self.bucket is not None:
            self.bucket.admit(analyst)
        if self.gate is not None:
            self.gate.acquire(analyst)

    def exit(self, analyst: str) -> None:
        """Release the in-flight slot taken by a successful :meth:`enter`."""
        if self.gate is not None:
            self.gate.release()


class _StepTimer:
    """Times one request's steps into their latency histograms.

    :meth:`lap` closes the running step and opens the next; :meth:`stop`
    closes the running step, also when that step raised.
    """

    __slots__ = ("_observers", "_clock", "_step", "_start")

    def __init__(self, observers, clock, step: str):
        self._observers = observers
        self._clock = clock
        self._step = step
        self._start = clock()

    def lap(self, step: str) -> None:
        now = self._clock()
        self._observers[self._step](now - self._start)
        self._step = step
        self._start = now

    def stop(self) -> None:
        self._observers[self._step](self._clock() - self._start)


class ServePipeline:
    """The two serve drivers of one server (or one shard).

    :meth:`serve_single` fuses a cache hit (compliance check, fingerprint,
    probe, a free log append); a miss goes on through reserve, execute,
    cache put and append.  Tests hold it bit-identical to a one-row
    :meth:`serve_workload`, which runs every step once per batch.  Sharded
    sessions share their shard's pipeline and pass their
    :class:`AdmissionControl` per call.

    With telemetry on, the drivers read the clock between steps and time a
    step that raises too: all six per batch, a single miss's last four plus
    the whole miss (``single_miss``), and a sample of fused hits
    (``cache_hit_fastpath``).  Off, each step costs one ``is None`` test.
    Timing never reorders an operation: answers, charges, and audit
    records are bit-identical on or off.
    """

    def __init__(self, server: "QueryServer"):
        self._server = server
        self._auditor = server.auditor
        self._log = server.audit_log
        self._dispatch = server.audit_dispatch
        self._clock = None
        self._telemetry = None
        if server.telemetry.enabled:
            self._instrument(server, server.telemetry)

    def _instrument(self, server: "QueryServer", telemetry) -> None:
        """Pre-resolve every instrument the drivers record into."""
        self._telemetry = telemetry
        self._clock = telemetry.clock
        registry = telemetry.registry
        mechanism = server.mechanism if isinstance(server.mechanism, str) else "custom"
        self._labels = {"shard": str(server.shard_index), "mechanism": mechanism}

        def observer(step: str):
            return registry.histogram(STAGE_SECONDS, stage=step, **self._labels).observe

        self._observers = {step: observer(step) for step in _STEPS}
        # A record costs ~10% of the ~8 us fused hit, so only every 8th hit
        # per pipeline is recorded; misses (>=50 us mechanism call) always are.
        self._hit_observe = observer("cache_hit_fastpath")
        self._single_miss_observe = observer("single_miss")
        self._admission_observe = observer("admission")
        self._hit_tick = 0
        # Pre-created at zero so the reject families are present in every
        # snapshot, not only after the first refusal.
        self._reject_counters = {
            reason: registry.counter(ADMISSION_REJECTS, reason=reason, shard=self._labels["shard"])
            for reason in ("rate_limit", "overload", "other")
        }
        # analyst digest prefix -> caches whose hit/miss ints are summed at
        # snapshot time, so counting requests costs the hot path nothing.
        self._request_groups: dict[str, list] = {}

    def register_analyst(self, analyst: str, cache) -> None:
        """Expose one analyst's request counts (no-op with telemetry off).

        Read off the cache's ``hits + misses`` at snapshot time: every
        served query (single or workload row) consults the cache once.
        Analysts sharing a digest prefix sum into one monotone series.
        """
        if self._telemetry is None:
            return
        prefix = analyst_digest_prefix(analyst)
        group = self._request_groups.get(prefix)
        if group is None:
            group = self._request_groups.setdefault(prefix, [])
            self._telemetry.registry.counter_fn(
                REQUESTS_TOTAL,
                lambda caches=group: float(sum(c.hits + c.misses for c in caches)),
                analyst=prefix,
                **self._labels,
            )
        group.append(cache)

    def _admit(self, admission: AdmissionControl, analyst: str) -> None:
        """Admission; with telemetry on, timed and refusals counted by reason."""
        clock = self._clock
        if clock is None:
            admission.enter(analyst)
            return
        start = clock()
        try:
            admission.enter(analyst)
        except BaseException as refusal:
            rejects = self._reject_counters
            (rejects.get(getattr(refusal, "reason", None)) or rejects["other"]).inc()
            raise
        finally:
            self._admission_observe(clock() - start)

    def _reserve(self, state, analyst: str, count: int) -> BudgetLease | None:
        """Lease ``count`` fresh answers' budget, or ``None`` when a refused
        charge falls back to the synthetic release (zero further epsilon)."""
        server = self._server
        try:
            return BudgetLease.acquire(server.accountant, analyst, count, state.epsilon_per_query)
        except BudgetExhausted:
            if server.synthetic_fallback is None:
                raise
            return None

    def serve_single(
        self, state, analyst: str, query: SubsetQuery, admission: AdmissionControl | None = None
    ) -> float:
        if admission is not None:
            # Admission precedes everything, validation included: a refusal
            # costs nothing, and an admitted bad request spent its token.
            self._admit(admission, analyst)
            try:
                return self.serve_single(state, analyst, query)
            finally:
                admission.exit(analyst)
        server = self._server
        if query.n != server.n:
            raise ValueError(f"query addresses n={query.n}, data has n={server.n}")
        clock = self._clock
        log = self._log
        with state.lock:
            if clock is not None:
                start = clock()
            if self._auditor is not None:
                self._auditor.check(analyst)
            mask = query.mask
            fingerprint, packed = fingerprint_and_packed(mask)
            size = int(np.count_nonzero(mask))
            cached = state.cache.get(fingerprint)
            if cached is not None:
                # A replay is free post-processing: logged, never charged,
                # and no new unique record for the auditor.
                log.append(
                    analyst,
                    fingerprint,
                    mask,
                    cached,
                    True,
                    0.0,
                    packed_mask=packed,
                    query_size=size,
                )
                if clock is not None:
                    tick = self._hit_tick + 1
                    self._hit_tick = tick
                    if (tick & _HIT_SAMPLE_MASK) == 1:
                        self._hit_observe(clock() - start)
                return cached
            timer = None
            if clock is not None:
                timer = _StepTimer(self._observers, clock, "budget_reserve")
            lease = None
            try:
                lease = self._reserve(state, analyst, 1)
                if timer is not None:
                    timer.lap("execute")
                if lease is None:
                    answer = float(server._fallback().answer(mask))
                else:
                    answer = state.answerer.answer(query)
                if timer is not None:
                    timer.lap("cache_put")
                # Synthetic answers stay out of the cache, so every one is
                # logged with its true source.
                if lease is not None:
                    state.cache.put(fingerprint, answer)
                if timer is not None:
                    timer.lap("audit_append")
                log.append(
                    analyst,
                    fingerprint,
                    mask,
                    answer,
                    False,
                    0.0 if lease is None else state.epsilon_per_query,
                    source="synthetic" if lease is None else "mechanism",
                    packed_mask=packed,
                    query_size=size,
                )
                if lease is not None:
                    lease.commit()
                self._dispatch.after_append(log, analyst)
            finally:
                if timer is not None:
                    timer.stop()
                if lease is not None and not lease.settled:
                    lease.rollback()  # a step raised before AuditAppend committed
            if clock is not None:
                self._single_miss_observe(clock() - start)
            return answer

    def serve_workload(
        self,
        state,
        analyst: str,
        workload: Workload | Sequence[SubsetQuery],
        admission: AdmissionControl | None = None,
    ) -> np.ndarray:
        if admission is not None:
            self._admit(admission, analyst)
            try:
                return self.serve_workload(state, analyst, workload)
            finally:
                admission.exit(analyst)
        workload = Workload.coerce(workload)
        server = self._server
        if workload.n != server.n:
            raise ValueError(f"workload addresses n={workload.n}, data has n={server.n}")
        clock = self._clock
        log = self._log
        with state.lock:
            timer = None
            if clock is not None:
                timer = _StepTimer(self._observers, clock, "compliance")
            lease = None
            try:
                if self._auditor is not None:
                    self._auditor.check(analyst)
                if timer is not None:
                    timer.lap("cache_lookup")
                fingerprints, packed_rows, sizes = workload_fingerprints_packed(workload)
                looked_up = state.cache.lookup_many(fingerprints)
                answer_by_fp: dict[bytes, float] = {}
                miss_rows: list[int] = []
                miss_fps: list[bytes] = []
                seen: set[bytes] = set()
                for row, (fingerprint, hit) in enumerate(zip(fingerprints, looked_up)):
                    if hit is not None:
                        answer_by_fp[fingerprint] = hit
                    elif fingerprint not in seen:
                        seen.add(fingerprint)
                        miss_rows.append(row)
                        miss_fps.append(fingerprint)
                if timer is not None:
                    timer.lap("budget_reserve")
                synthetic = False
                if miss_rows:
                    lease = self._reserve(state, analyst, len(miss_rows))
                    synthetic = lease is None
                if timer is not None:
                    timer.lap("execute")
                fresh = []
                if miss_rows:
                    misses = Workload(workload.masks[miss_rows], copy=False)
                    if synthetic:
                        released = server._fallback().answer_workload(misses)
                    else:
                        released = state.answerer.answer_workload(misses)
                    fresh = [(fp, float(answer)) for fp, answer in zip(miss_fps, released)]
                    answer_by_fp.update(fresh)
                if timer is not None:
                    timer.lap("cache_put")
                if fresh and not synthetic:
                    state.cache.put_many(fresh)
                if timer is not None:
                    timer.lap("audit_append")
                answers = np.array([answer_by_fp[fp] for fp in fingerprints], dtype=np.float64)
                # A miss's first row is the released answer; a repeat of a
                # mechanism answer (in the batch or cached) is a free replay,
                # but every row answered from the synthetic release is synthetic.
                fresh_rows = set(miss_rows)
                synthetic_fps = seen if synthetic else ()
                epsilon = 0.0 if synthetic else state.epsilon_per_query
                source = "synthetic" if synthetic else "mechanism"
                masks = workload.masks
                for row, fingerprint in enumerate(fingerprints):
                    is_fresh = row in fresh_rows or fingerprint in synthetic_fps
                    log.append(
                        analyst,
                        fingerprint,
                        masks[row],
                        answers[row],
                        not is_fresh,
                        epsilon if is_fresh else 0.0,
                        source=source if is_fresh else "mechanism",
                        packed_mask=packed_rows[row],
                        query_size=int(sizes[row]),
                    )
                if lease is not None:
                    lease.commit()
                self._dispatch.after_append(log, analyst)
            finally:
                if timer is not None:
                    timer.stop()
                if lease is not None and not lease.settled:
                    lease.rollback()  # a step raised before AuditAppend committed
        return answers

    def __repr__(self) -> str:
        return f"ServePipeline({' -> '.join(_STEPS)})"
