"""The staged serve pipeline: one fixed stage list, two serve paths.

The serve path once lived in ``QueryServer._serve``/``_serve_workload``
as a ~250-line monolith where admission, compliance, caching, budget
reservation, noise sampling, and audit logging interleaved under one lock
discipline.  This module decomposes it into the fixed sequence

    Admission -> Compliance -> CacheLookup -> BudgetReserve -> Execute
              -> CachePut -> AuditAppend

where each stage is a small, separately testable unit and every server
(:class:`~repro.service.server.QueryServer`, the sharded front end) is a
thin driver over the same stage list.

**Bit-identity contract.**  The stages perform exactly the operations of
the pre-refactor monolith, in exactly the same order, under the same
per-analyst lock window (``Compliance`` through ``AuditAppend``; admission
runs outside it and has zero budget/cache/audit footprint).  Golden tests
pin served answers, budget-exhaustion points, compliance denials, and E18
headlines across the refactor.

The ``Execute`` stage calls the analyst's answerer on the serving thread:
handing the call to a thread pool or a fork pool measured slower on every
box the benchmarks ran on, one core or two.
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
    TelemetryAdmission,
    TelemetryStage,
    analyst_digest_prefix,
)

if TYPE_CHECKING:
    from repro.service.server import QueryServer, _AnalystState

#: Fused cache hits are latency-sampled every ``mask + 1`` hits (the first
#: hit always lands, keeping the family non-zero after one replay).  Must
#: be ``2**k - 1`` so the sampling test is one AND.
_HIT_SAMPLE_MASK = 7

__all__ = [
    "AdmissionControl",
    "AuditAppendStage",
    "BudgetReserveStage",
    "CacheLookupStage",
    "CachePutStage",
    "ComplianceStage",
    "ExecuteStage",
    "Exchange",
    "ServePipeline",
]


class Exchange:
    """Mutable per-request state threaded through the stages.

    One exchange lives strictly inside one driver invocation (and, for
    the serving stages, inside the per-analyst lock), so it needs no
    synchronization.  Slotted: the cached-replay hot path allocates none,
    and the miss path's allocation cost is noise next to a mechanism call.
    """

    __slots__ = (
        "server",
        "state",
        "analyst",
        # single-query shape
        "query",
        "mask",
        "fingerprint",
        "packed",
        "size",
        "answer",
        # workload shape
        "workload",
        "fingerprints",
        "packed_rows",
        "sizes",
        "miss_rows",
        "miss_fps",
        "answer_by_fp",
        "fresh_entries",
        "answers",
        # budget stage contract
        "epsilon",
        "lease",
        "synthetic",
    )

    def __init__(
        self,
        server: "QueryServer",
        state: "_AnalystState",
        analyst: str,
        *,
        query: SubsetQuery | None = None,
        workload: Workload | None = None,
    ):
        self.server = server
        self.state = state
        self.analyst = analyst
        self.query = query
        self.workload = workload
        self.mask = None
        self.fingerprint = None
        self.packed = None
        self.size = 0
        self.answer = None
        self.fingerprints = None
        self.packed_rows = None
        self.sizes = None
        self.miss_rows = None
        self.miss_fps = None
        self.answer_by_fp = None
        self.fresh_entries = None
        self.answers = None
        self.epsilon = 0.0
        self.lease = None
        self.synthetic = False


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class AdmissionControl:
    """The ``Admission`` stage: token bucket + in-flight gate, pre-lock.

    Runs *before* the per-analyst serialization lock and has zero budget,
    cache, and audit footprint — a rejected request never reached the
    mechanism.  Duck-typed over the sharded front end's bucket
    (``admit(analyst)``) and gate (``acquire(analyst)``/``release()``)
    so the stage itself carries no admission policy.
    """

    __slots__ = ("bucket", "gate")

    name = "admission"

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


class ComplianceStage:
    """Per-request compliance: the auditor's circuit breaker.

    The expensive compliance work happens elsewhere, off the hot path —
    certificate verification at session *registration* (see
    ``QueryServer._state``) and reconstruction passes in the auditor —
    this stage only enforces their verdicts: a tripped analyst is refused
    with ``CircuitBreakerTripped`` before any budget or cache touch.
    """

    __slots__ = ("_auditor",)

    name = "compliance"

    def __init__(self, auditor):
        self._auditor = auditor

    def check(self, analyst: str) -> None:
        """Raise if the analyst's breaker is open; no-op unaudited."""
        if self._auditor is not None:
            self._auditor.check(analyst)

    def batch(self, x: Exchange) -> None:
        self.check(x.analyst)


class CacheLookupStage:
    """Fingerprint the request and consult the analyst's answer cache.

    Budget footprint: none (hits are post-processing).  Cache footprint:
    read + LRU touch.  Produces the packed mask bytes the audit records
    reuse, so bit-packing runs exactly once per request.
    """

    __slots__ = ()

    name = "cache_lookup"

    @staticmethod
    def probe(state, mask) -> tuple[bytes, bytes, int, float | None]:
        """``(fingerprint, packed, size, cached_answer)`` for one mask."""
        fingerprint, packed = fingerprint_and_packed(mask)
        size = int(np.count_nonzero(mask))
        return fingerprint, packed, size, state.cache.get(fingerprint)

    def batch(self, x: Exchange) -> None:
        fingerprints, packed_rows, sizes = workload_fingerprints_packed(x.workload)
        x.fingerprints = fingerprints
        x.packed_rows = packed_rows
        x.sizes = sizes
        looked_up = x.state.cache.lookup_many(fingerprints)
        miss_rows: list[int] = []
        miss_fps: list[bytes] = []
        seen: set[bytes] = set()
        for row, (fingerprint, hit) in enumerate(zip(fingerprints, looked_up)):
            if hit is None and fingerprint not in seen:
                seen.add(fingerprint)
                miss_rows.append(row)
                miss_fps.append(fingerprint)
        x.miss_rows = miss_rows
        x.miss_fps = miss_fps
        x.answer_by_fp = {
            fingerprint: hit
            for fingerprint, hit in zip(fingerprints, looked_up)
            if hit is not None
        }


class BudgetReserveStage:
    """Charge the misses all-or-nothing, held as a :class:`BudgetLease`.

    Verdicts (including the :class:`BudgetExhausted` raise points and
    messages) are bit-identical to the pre-refactor direct ``charge``;
    the lease only adds the rollback path the driver invokes when a later
    stage fails before the release is logged, so budget is never burned
    for answers never released.  ``AuditAppend`` commits the lease.
    With a synthetic fallback configured, a refused charge flips the
    exchange to synthetic service (zero further epsilon) instead of
    propagating.
    """

    __slots__ = ()

    name = "budget_reserve"

    @staticmethod
    def reserve(x: Exchange, count: int) -> None:
        x.epsilon = x.state.epsilon_per_query
        try:
            x.lease = BudgetLease.acquire(
                x.server.accountant, x.analyst, count, x.epsilon
            )
        except BudgetExhausted:
            if x.server.synthetic_fallback is None:
                raise
            x.synthetic = True

    def single(self, x: Exchange) -> None:
        self.reserve(x, 1)

    def batch(self, x: Exchange) -> None:
        if not x.miss_rows:
            x.epsilon = x.state.epsilon_per_query
            return
        self.reserve(x, len(x.miss_rows))


class ExecuteStage:
    """Run the mechanism (or the synthetic fallback) for the misses.

    The only stage that draws noise; everything else is bookkeeping.
    Mechanism calls run on the serving thread, on the analyst's own
    answerer; synthetic-fallback answers are exact post-processing of the
    pre-paid release.
    """

    __slots__ = ()

    name = "execute"

    def single(self, x: Exchange) -> None:
        if x.synthetic:
            x.answer = float(x.server._fallback().answer(x.mask))
        else:
            x.answer = x.state.answerer.answer(x.query)

    def batch(self, x: Exchange) -> None:
        if not x.miss_rows:
            return
        sub_workload = Workload(x.workload.masks[x.miss_rows], copy=False)
        if x.synthetic:
            fresh = x.server._fallback().answer_workload(sub_workload)
            for fingerprint, answer in zip(x.miss_fps, fresh):
                x.answer_by_fp[fingerprint] = float(answer)
        else:
            fresh = x.state.answerer.answer_workload(sub_workload)
            x.fresh_entries = [
                (fingerprint, float(answer))
                for fingerprint, answer in zip(x.miss_fps, fresh)
            ]
            x.answer_by_fp.update(x.fresh_entries)


class CachePutStage:
    """Insert freshly released answers into the analyst's cache.

    Synthetic answers stay out of the cache so every one is logged with
    its true source (pre-refactor behavior); cache hits obviously skip.
    """

    __slots__ = ()

    name = "cache_put"

    def single(self, x: Exchange) -> None:
        if not x.synthetic:
            x.state.cache.put(x.fingerprint, x.answer)

    def batch(self, x: Exchange) -> None:
        if x.miss_rows and not x.synthetic:
            x.state.cache.put_many(x.fresh_entries)


class AuditAppendStage:
    """Append every release to the audit log, commit the charge, then
    poke the auditor.

    The append itself stays on the hot path (the log *is* the server's
    evidence trail); what happens after is the pluggable part — the
    configured :class:`~repro.service.audit_worker.AuditDispatch` either
    runs ``maybe_audit`` inline (pre-refactor behavior) or wakes a
    background audit worker.  Cached single replays append but do not
    poke (they add no unique record, matching the monolith).

    The ``BudgetReserve`` lease is committed as soon as the records are
    in the log, *before* the dispatch runs: once an answer is logged (and
    cached) it has been released, so an audit pass that raises afterwards
    (an LP solver failure, say) propagates without refunding the charge.
    A logged answer is always a charged answer.
    """

    __slots__ = ("_log", "_dispatch")

    name = "audit_append"

    def __init__(self, log, dispatch):
        self._log = log
        self._dispatch = dispatch

    @property
    def dispatch(self):
        """The audit dispatch verdicts flow through (tests, telemetry)."""
        return self._dispatch

    def append_hit(self, analyst, fingerprint, mask, answer, packed, size) -> None:
        """Log one cached replay (free, no auditor poke)."""
        self._log.append(
            analyst,
            fingerprint,
            mask,
            answer,
            True,
            0.0,
            packed_mask=packed,
            query_size=size,
        )

    def single(self, x: Exchange) -> None:
        synthetic = x.synthetic
        self._log.append(
            x.analyst,
            x.fingerprint,
            x.mask,
            x.answer,
            False,
            0.0 if synthetic else x.epsilon,
            source="synthetic" if synthetic else "mechanism",
            packed_mask=x.packed,
            query_size=x.size,
        )
        if x.lease is not None:
            x.lease.commit()
        self._dispatch.after_append(self._log, x.analyst)

    def batch(self, x: Exchange) -> None:
        answers = np.array(
            [x.answer_by_fp[fingerprint] for fingerprint in x.fingerprints],
            dtype=np.float64,
        )
        x.answers = answers
        fresh_rows = set(x.miss_rows)
        masks = x.workload.masks
        epsilon = x.epsilon
        synthetic = x.synthetic
        for row, fingerprint in enumerate(x.fingerprints):
            is_fresh = row in fresh_rows
            self._log.append(
                x.analyst,
                fingerprint,
                masks[row],
                answers[row],
                not is_fresh,
                epsilon if is_fresh and not synthetic else 0.0,
                source="synthetic" if is_fresh and synthetic else "mechanism",
                packed_mask=x.packed_rows[row],
                query_size=int(x.sizes[row]),
            )
        if x.lease is not None:
            x.lease.commit()
        self._dispatch.after_append(self._log, x.analyst)


# ---------------------------------------------------------------------------
# The pipeline driver
# ---------------------------------------------------------------------------


class ServePipeline:
    """The fixed stage list plus the drivers every server runs requests by.

    One pipeline per server; sessions on an admission-controlled front
    end layer their bucket/gate in via :meth:`with_admission` (stages are
    shared, only the admission slot differs).  Two drivers:

    * :meth:`serve_single` — the per-query hot path.  The cached-replay
      branch is *fused*: it calls the same stage units
      (``ComplianceStage.check`` -> ``CacheLookupStage.probe`` ->
      ``AuditAppendStage.append_hit``) as straight-line code, because at
      ~8 us/ask a generic stage loop is measurable overhead; the miss
      branch (dominated by the mechanism call) runs the staged sequence.
      A one-row :meth:`serve_workload` is its reference: the tests hold
      the two bit-identical, answers and audit records alike.
    * :meth:`serve_workload` — the batched path, fully staged.

    Both paths hold the ``BudgetReserve`` stage's lease until
    ``AuditAppend`` commits it, and roll it back if any stage before the
    commit raises — the pipeline never burns budget for answers never
    released, and never releases an answer it did not charge for.
    """

    def __init__(self, server: "QueryServer", dispatch):
        self._server = server
        self._admission: AdmissionControl | None = None
        self._compliance = ComplianceStage(server.auditor)
        self._cache_lookup = CacheLookupStage()
        self._budget = BudgetReserveStage()
        self._execute = ExecuteStage()
        self._cache_put = CachePutStage()
        self._audit_append = AuditAppendStage(server.audit_log, dispatch)
        self._serving = (
            self._compliance,
            self._cache_lookup,
            self._budget,
            self._execute,
            self._cache_put,
            self._audit_append,
        )
        self._miss_stages = (
            self._budget,
            self._execute,
            self._cache_put,
            self._audit_append,
        )
        # Telemetry attaches at this one seam: the stage tuples get wrapped
        # (the raw stage attributes above stay raw, so identity-sensitive
        # consumers — execute_stage, audit_stage, the fused fast path —
        # keep the unwrapped units), and the disabled single-ask path pays
        # two `is None` checks per request.
        self._clock = None
        telemetry = getattr(server, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            self._telemetry = telemetry
            self._instrument(server)
        else:
            self._telemetry = None

    def _instrument(self, server: "QueryServer") -> None:
        """Wrap the stage tuples and pre-resolve every hot-path instrument."""
        telemetry = self._telemetry
        registry = telemetry.registry
        clock = telemetry.clock
        self._clock = clock
        mechanism = server.mechanism if isinstance(server.mechanism, str) else "custom"
        self._labels = {
            "shard": str(getattr(server, "shard_index", 0)),
            "mechanism": mechanism,
        }

        def stage_hist(stage_name: str):
            return registry.histogram(
                STAGE_SECONDS, stage=stage_name, **self._labels
            )

        wrapped = {
            stage.name: TelemetryStage(stage, stage_hist(stage.name), clock)
            for stage in self._serving
        }
        self._serving = tuple(wrapped[stage.name] for stage in self._serving)
        self._miss_stages = tuple(wrapped[stage.name] for stage in self._miss_stages)
        # The fused cached-replay branch is one histogram observation: per-
        # unit timing there would cost more than the work it measures.  The
        # batched path (and the miss stages) carry the per-stage split.
        self._hit_hist = stage_hist("cache_hit_fastpath")
        self._single_miss_hist = stage_hist("single_miss")
        self._admission_hist = stage_hist("admission")
        # Bound-method handles shave one attribute walk per request off the
        # fused branch, which operates on a single-digit-microsecond budget.
        self._hit_observe = self._hit_hist.observe
        self._single_miss_observe = self._single_miss_hist.observe
        # The fused hit path samples every _HIT_SAMPLE_MASK + 1-th hit (first
        # hit always included): a full histogram record costs a measurable
        # slice of the ~8 us hit itself, and the latency *distribution*
        # does not need every data point — while misses, dominated by the
        # >=50 us mechanism call, are always recorded.
        self._hit_tick = 0
        # Pre-created at zero so the reject families are present in every
        # snapshot, not only after the first refusal.
        self._reject_counters = {
            reason: registry.counter(
                ADMISSION_REJECTS, reason=reason, shard=self._labels["shard"]
            )
            for reason in ("rate_limit", "overload", "other")
        }
        # analyst digest prefix -> caches contributing to its request count;
        # sampled at snapshot time from the hit/miss ints the caches already
        # maintain, so counting requests costs the hot path nothing.
        self._request_groups: dict[str, list] = {}

    def register_analyst(self, analyst: str, cache) -> None:
        """Expose one analyst's request counts (no-op with telemetry off).

        Requests are read off the analyst cache's ``hits + misses`` at
        snapshot time — every served query (single or workload row)
        performs exactly one cache consultation.  Analysts sharing a
        digest prefix sum into one series, so the counter stays monotone
        even across label collisions.
        """
        if self._telemetry is None:
            return
        prefix = analyst_digest_prefix(analyst)
        group = self._request_groups.get(prefix)
        if group is None:
            group = self._request_groups.setdefault(prefix, [])
            self._telemetry.registry.counter_fn(
                REQUESTS_TOTAL,
                lambda caches=group: float(
                    sum(c.hits + c.misses for c in caches)
                ),
                analyst=prefix,
                **self._labels,
            )
        group.append(cache)

    @property
    def stages(self) -> tuple:
        """The fixed stage sequence (admission first when configured)."""
        if self._admission is None:
            return self._serving
        return (self._admission, *self._serving)

    @property
    def execute_stage(self) -> ExecuteStage:
        return self._execute

    @property
    def audit_stage(self) -> AuditAppendStage:
        return self._audit_append

    def with_admission(self, admission: AdmissionControl) -> "ServePipeline":
        """A view of this pipeline with an admission stage in front.

        Serving stages are shared (same caches, same audit log); only the
        pre-lock admission slot differs, which is how per-session
        bucket/gate pairs ride one shard pipeline.
        """
        clone = object.__new__(ServePipeline)
        clone.__dict__.update(self.__dict__)
        if self._telemetry is not None:
            admission = TelemetryAdmission(
                admission, self._admission_hist, self._reject_counters, self._clock
            )
        clone._admission = admission
        return clone

    # -- single-query driver ------------------------------------------------

    def serve_single(self, state, analyst: str, query: SubsetQuery) -> float:
        admission = self._admission
        if admission is None:
            return self._single_locked(state, analyst, query)
        # Admission precedes everything, including validation: a rejected
        # request must cost nothing, and an admitted bad request still
        # consumed its token (the pre-refactor sharded ordering).
        admission.enter(analyst)
        try:
            return self._single_locked(state, analyst, query)
        finally:
            admission.exit(analyst)

    def _single_locked(self, state, analyst: str, query: SubsetQuery) -> float:
        """Serve one query under the analyst lock; timed when telemetry is on.

        With telemetry on (``self._clock`` set), the cached-replay branch
        samples one histogram record (``stage="cache_hit_fastpath"``) on
        every ``_HIT_SAMPLE_MASK + 1``-th hit, first hit always included,
        so the family is non-zero after a single replay.  A full record
        (clock read + bucket observe) costs ~10% of the ~8 us hit itself;
        sampling keeps the steady-state telemetry tax to one clock read
        and a counter bump per hit, while the recorded distribution stays
        representative.  The miss branch records whole-request latency
        (``stage="single_miss"``) on every miss and lets the wrapped miss
        stages time themselves; its pre-mechanism compliance/lookup work
        is sub-microsecond against a >=50 us mechanism call, so it carries
        no per-unit split here — the batched path provides that.  Timing
        never reorders an operation, so answers, charges, and audit
        records are bit-identical with telemetry on or off.
        """
        server = self._server
        if query.n != server.n:
            raise ValueError(f"query addresses n={query.n}, data has n={server.n}")
        clock = self._clock
        with state.lock:
            if clock is not None:
                start = clock()
            self._compliance.check(analyst)
            mask = query.mask
            fingerprint, packed, size, cached = self._cache_lookup.probe(state, mask)
            if cached is not None:
                # Fused replay fast path: same three stage units, no
                # exchange, no loop — the bit-for-bit pre-refactor ops.
                self._audit_append.append_hit(
                    analyst, fingerprint, mask, cached, packed, size
                )
                if clock is not None:
                    tick = self._hit_tick + 1
                    self._hit_tick = tick
                    if (tick & _HIT_SAMPLE_MASK) == 1:
                        self._hit_observe(clock() - start)
                return cached
            x = Exchange(server, state, analyst, query=query)
            x.mask = mask
            x.fingerprint = fingerprint
            x.packed = packed
            x.size = size
            try:
                for stage in self._miss_stages:
                    stage.single(x)
            except BaseException:
                _rollback(x.lease)
                raise
            if clock is not None:
                self._single_miss_observe(clock() - start)
            return x.answer

    # -- workload driver ----------------------------------------------------

    def serve_workload(
        self, state, analyst: str, workload: Workload | Sequence[SubsetQuery]
    ) -> np.ndarray:
        admission = self._admission
        if admission is None:
            return self._workload_locked(state, analyst, workload)
        admission.enter(analyst)
        try:
            return self._workload_locked(state, analyst, workload)
        finally:
            admission.exit(analyst)

    def _workload_locked(self, state, analyst: str, workload) -> np.ndarray:
        workload = Workload.coerce(workload)
        server = self._server
        if workload.n != server.n:
            raise ValueError(
                f"workload addresses n={workload.n}, data has n={server.n}"
            )
        x = Exchange(server, state, analyst, workload=workload)
        with state.lock:
            try:
                for stage in self._serving:
                    stage.batch(x)
            except BaseException:
                _rollback(x.lease)
                raise
        return x.answers

    def __repr__(self) -> str:
        names = " -> ".join(stage.name for stage in self.stages)
        return f"ServePipeline({names})"


def _rollback(lease: BudgetLease | None) -> None:
    """Refund a lease no stage has committed yet (a failed request)."""
    if lease is not None and not lease.settled:
        lease.rollback()
