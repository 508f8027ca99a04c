"""Sharded, admission-controlled front end over :class:`QueryServer`.

BENCH_service.json's original story was throughput *falling* with
concurrency: one analyst registry lock, one accountant ledger lock, and
per-analyst dict caches meant 16 sessions convoyed on shared mutexes.  The
:class:`ShardedQueryServer` removes every global lock from the request hot
path:

- **Analyst sharding.**  Analysts hash-partition across ``S`` independent
  :class:`QueryServer` shards (:func:`~repro.privacy.accounting.
  stable_shard` — same digest the sharded accountant routes by, so an
  analyst's ledger, cache stripe, and serving state all live on one shard).
  A request touches only its own shard.

- **Per-shard striped LRU cache.**  Each shard owns one
  :class:`~repro.service.cache.StripedAnswerCache` shared by its analysts
  through :class:`~repro.service.cache.AnalystCacheView` windows — keys are
  analyst-scoped so answers can never leak across sessions, the LRU bound
  is global per shard (10^5 sessions no longer mean 10^5 unbounded dicts),
  and an analyst's whole batch lands in one stripe: one lock acquisition.

- **Leased global budget.**  The default accountant is a
  :class:`~repro.privacy.accounting.ShardedAccountant`: per-shard
  sub-ledgers with the global epsilon cap enforced through pre-authorized
  leases, reconciled *exactly* (same float summation order) at exhaustion
  and on reads — budget verdicts are bit-identical to the single-ledger
  server, which the golden tests pin.

- **Admission control.**  Per-analyst token buckets (:class:`RateLimit`)
  and a per-shard in-flight gate reject overload with a typed
  :class:`Rejected` carrying ``retry_after`` — callers back off instead of
  convoying on a lock, so saturation degrades gracefully.

Determinism is unchanged: answers derive from
``derive_rng(seed, "service", analyst)`` exactly as on the single server,
so for a fixed seed every analyst's answer stream is bit-identical under
any shard count — including ``shards=1`` (the single server itself).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.compliance.gate import ComplianceGate
from repro.privacy.accounting import ShardedAccountant, stable_shard
from repro.privacy.kernels import MechanismSpec
from repro.queries.mechanism import QueryAnswerer
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service.audit import AuditLog, ReconstructionAuditor
from repro.service.audit_worker import resolve_audit_dispatch
from repro.service.cache import AnalystCacheView, StripedAnswerCache
from repro.service.pipeline import AdmissionControl
from repro.service.server import AnalystSession, QueryServer, SyntheticFallback
from repro.synth.binary import BinaryRelease
from repro.telemetry import resolve_telemetry
from repro.telemetry.instrument import (
    CACHE_ENTRIES,
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
)

__all__ = [
    "RateLimit",
    "Rejected",
    "ShardedAnalystSession",
    "ShardedQueryServer",
]


class Rejected(RuntimeError):
    """A request refused by admission control (not by privacy budgets).

    ``reason`` is ``"rate_limit"`` (the analyst's token bucket is empty) or
    ``"overload"`` (the shard's in-flight gate is full); ``retry_after`` is
    the suggested back-off in seconds (0.0 when immediate retry may work).
    Unlike :class:`~repro.privacy.accounting.BudgetExhausted`, a rejected
    request has *no* privacy cost and no audit-log footprint — it never
    reached the mechanism.
    """

    def __init__(self, message: str, *, analyst: str, reason: str, retry_after: float):
        super().__init__(message)
        self.analyst = analyst
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class RateLimit:
    """Per-analyst token-bucket policy: ``rate`` requests/s, ``burst`` deep."""

    rate: float
    burst: int

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be at least 1, got {self.burst}")


class _TokenBucket:
    """One analyst's token bucket; refills continuously on the given clock."""

    __slots__ = ("_lock", "_policy", "_clock", "_tokens", "_stamp", "rejections")

    def __init__(self, policy: RateLimit, clock: Callable[[], float]):
        self._lock = threading.Lock()
        self._policy = policy
        self._clock = clock
        self._tokens = float(policy.burst)
        self._stamp = clock()
        self.rejections = 0

    def admit(self, analyst: str) -> None:
        """Consume one token or raise :class:`Rejected` with a back-off."""
        with self._lock:
            now = self._clock()
            # Clamp: a clock that steps backwards (a wall clock under NTP,
            # or any non-monotonic injected source) must never *drain*
            # tokens or push retry_after past one full refill interval.
            elapsed = max(0.0, now - self._stamp)
            self._tokens = min(
                float(self._policy.burst),
                self._tokens + elapsed * self._policy.rate,
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            self.rejections += 1
            retry_after = (1.0 - self._tokens) / self._policy.rate
        raise Rejected(
            f"analyst {analyst!r} over rate limit "
            f"({self._policy.rate:g}/s, burst {self._policy.burst}); "
            f"retry in {retry_after:.3f}s",
            analyst=analyst,
            reason="rate_limit",
            retry_after=retry_after,
        )


class _AdmissionGate:
    """Per-shard bound on concurrently served requests."""

    __slots__ = ("_lock", "max_inflight", "inflight", "rejections")

    def __init__(self, max_inflight: int):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be at least 1, got {max_inflight}")
        self._lock = threading.Lock()
        self.max_inflight = max_inflight
        self.inflight = 0
        self.rejections = 0

    def acquire(self, analyst: str) -> None:
        """Take an in-flight slot or raise :class:`Rejected` (overload)."""
        with self._lock:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return
            self.rejections += 1
            full = self.inflight
        raise Rejected(
            f"shard at capacity ({full}/{self.max_inflight} in flight); "
            f"analyst {analyst!r} should retry",
            analyst=analyst,
            reason="overload",
            retry_after=0.0,
        )

    def release(self) -> None:
        """Return a slot taken by a successful :meth:`acquire`."""
        with self._lock:
            self.inflight -= 1

    @contextmanager
    def slot(self, analyst: str) -> Iterator[None]:
        self.acquire(analyst)
        try:
            yield
        finally:
            self.release()


class ShardedAnalystSession(AnalystSession):
    """An :class:`AnalystSession` routed through admission control.

    Resolves its shard, serving state, token bucket, and gate once at
    construction; per-request work is bucket -> gate -> the shard-local
    serve path, with no global lock anywhere.
    """

    def __init__(self, front: "ShardedQueryServer", analyst: str):
        shard = front.shard_of(analyst)
        super().__init__(front._shard_servers[shard], analyst)
        self.shard = shard
        self._pipeline = self._server.pipeline
        # The shard's pipeline runs this session's bucket/gate as its
        # Admission step; with neither configured there is no step at all.
        bucket = front._bucket(analyst)
        gate = front._gates[shard]
        self._admission = (
            None if bucket is None and gate is None else AdmissionControl(bucket, gate)
        )

    def ask(self, query: SubsetQuery) -> float:
        """Answer one query; may raise :class:`Rejected` before any charge."""
        return self._pipeline.serve_single(
            self._state, self.analyst, query, self._admission
        )

    def ask_workload(self, workload: Workload | Sequence[SubsetQuery]) -> np.ndarray:
        """Answer a workload (one admission token for the whole batch)."""
        return self._pipeline.serve_workload(
            self._state, self.analyst, workload, self._admission
        )


class ShardedQueryServer:
    """``S`` :class:`QueryServer` shards behind one deterministic router.

    Construction args mirror :class:`QueryServer`; the extras:

    Args:
        shards: number of independent shards analysts hash across.
        cache_stripes: lock stripes per shard cache.
        cache_entries: LRU bound *per shard* (shared by that shard's
            analysts), ``None`` = unbounded.
        rate_limit: optional per-analyst :class:`RateLimit`.
        max_inflight_per_shard: optional per-shard concurrency bound;
            ``None`` disables the overload gate.
        clock: monotonic time source for token buckets (injectable so
            tests can drive refills deterministically).
        accountant: defaults to a :class:`ShardedAccountant` with matching
            shard count and no budgets; pass a configured one to enforce
            per-analyst/global caps.  A plain :class:`ServiceAccountant`
            also works (it is simply shared across shards).
        telemetry: observability — a :class:`~repro.telemetry.Telemetry`
            instance, :data:`~repro.telemetry.NULL_TELEMETRY` (off), or
            ``None`` (default: consult ``REPRO_TELEMETRY``).  When
            enabled, every shard server instruments its pipeline with
            this facade and per-stripe cache counters are exported at
            snapshot time.

    The auditor, accountant, synthetic-fallback release, compliance gate,
    and dataset are shared across shards; caches and serving states are
    shard-local.  One :class:`~repro.compliance.gate.ComplianceGate`
    approval therefore admits a spec on every shard, and a denial refuses
    it everywhere (logged in the refusing shard's audit log).
    """

    def __init__(
        self,
        data: np.ndarray,
        mechanism: str | Callable[..., QueryAnswerer] = "laplace",
        mechanism_params: dict | None = None,
        accountant=None,
        auditor: ReconstructionAuditor | None = None,
        cache_entries: int | None = None,
        seed: int = 0,
        synthetic_fallback: SyntheticFallback | bool | None = None,
        compliance: ComplianceGate | None = None,
        *,
        shards: int = 16,
        cache_stripes: int = 8,
        rate_limit: RateLimit | None = None,
        max_inflight_per_shard: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        audit_dispatch=None,
        telemetry=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if accountant is None:
            accountant = ShardedAccountant(shards=shards)
        self.shards = int(shards)
        self.accountant = accountant
        self.auditor = auditor
        self.compliance = compliance
        self.rate_limit = rate_limit
        self._clock = clock
        self.telemetry = resolve_telemetry(telemetry)
        # One audit dispatch for the whole front end: shards publish audit
        # signals through the same worker pool.
        self.audit_dispatch = resolve_audit_dispatch(audit_dispatch, auditor)
        self._shard_caches = tuple(
            StripedAnswerCache(max_entries=cache_entries, stripes=cache_stripes)
            for _ in range(self.shards)
        )
        self._shard_servers = tuple(
            QueryServer(
                data,
                mechanism,
                mechanism_params,
                accountant=accountant,
                auditor=auditor,
                cache_entries=cache_entries,
                seed=seed,
                synthetic_fallback=synthetic_fallback,
                compliance=compliance,
                audit_dispatch=self.audit_dispatch,
                telemetry=self.telemetry,
                shard_index=index,
            )
            for index in range(self.shards)
        )
        # Shards share one fallback holder (one release, paid once) and
        # scope their analysts' caches into the shard's striped cache.
        holder = self._shard_servers[0]._fallback_holder
        for index, server in enumerate(self._shard_servers):
            server._fallback_holder = holder
            cache = self._shard_caches[index]
            server._cache_factory = (
                lambda analyst, _cache=cache: AnalystCacheView(_cache, analyst)
            )
        if self.telemetry.enabled:
            self._register_cache_metrics()
        # No bound configured -> no gate object at all: the unbounded hot
        # path must not pay two lock acquisitions per request for a gate
        # that can never refuse.
        self._gates: tuple[_AdmissionGate | None, ...] = tuple(
            _AdmissionGate(max_inflight_per_shard)
            if max_inflight_per_shard is not None
            else None
            for _ in range(self.shards)
        )
        self._buckets: dict[str, _TokenBucket] = {}
        self._buckets_lock = threading.Lock()

    def _register_cache_metrics(self) -> None:
        """Expose every stripe's counters as snapshot-time callbacks.

        Stripes already count hits/misses/evictions as plain ints under
        their own locks; sampling those at snapshot time costs the hot
        path nothing.  Labels are ``(shard, stripe)`` so hot-stripe skew
        shows up on a dashboard without any per-request work.
        """
        registry = self.telemetry.registry
        for shard, cache in enumerate(self._shard_caches):
            for index, stripe in enumerate(cache._stripes):
                labels = {"shard": str(shard), "stripe": str(index)}
                registry.counter_fn(
                    CACHE_HITS, lambda s=stripe: float(s.hits), **labels
                )
                registry.counter_fn(
                    CACHE_MISSES, lambda s=stripe: float(s.misses), **labels
                )
                registry.counter_fn(
                    CACHE_EVICTIONS, lambda s=stripe: float(s.evictions), **labels
                )
                registry.gauge_fn(
                    CACHE_ENTRIES, lambda s=stripe: float(len(s)), **labels
                )

    # -- routing ------------------------------------------------------------

    def shard_of(self, analyst: str) -> int:
        """The shard serving the named analyst (same digest the
        :class:`ShardedAccountant` routes ledgers by)."""
        return stable_shard(analyst, self.shards)

    def shard_server(self, index: int) -> QueryServer:
        """One shard's inner server (diagnostics and tests)."""
        return self._shard_servers[index]

    def shard_cache(self, index: int) -> StripedAnswerCache:
        """One shard's striped cache (aggregate hit statistics)."""
        return self._shard_caches[index]

    def _bucket(self, analyst: str) -> _TokenBucket | None:
        if self.rate_limit is None:
            return None
        bucket = self._buckets.get(analyst)
        if bucket is None:
            with self._buckets_lock:
                bucket = self._buckets.get(analyst)
                if bucket is None:
                    bucket = _TokenBucket(self.rate_limit, self._clock)
                    self._buckets[analyst] = bucket
        return bucket

    # -- serving ------------------------------------------------------------

    def session(self, analyst: str) -> ShardedAnalystSession:
        """Open (or re-enter) the named analyst's admission-controlled
        session on its home shard."""
        return ShardedAnalystSession(self, analyst)

    def ask(self, analyst: str, query: SubsetQuery) -> float:
        """Sessionless single ask (admission control still applies)."""
        return self.session(analyst).ask(query)

    def ask_workload(
        self, analyst: str, workload: Workload | Sequence[SubsetQuery]
    ) -> np.ndarray:
        """Sessionless workload ask (admission control still applies)."""
        return self.session(analyst).ask_workload(workload)

    def mechanism_spec(self, analyst: str) -> MechanismSpec | None:
        """The named analyst's served :class:`MechanismSpec`."""
        return self._shard_servers[self.shard_of(analyst)].mechanism_spec(analyst)

    # -- aggregate views ----------------------------------------------------

    @property
    def n(self) -> int:
        """Size of the private dataset."""
        return self._shard_servers[0].n

    @property
    def analysts(self) -> tuple[str, ...]:
        """All analysts with open sessions, grouped by shard."""
        return tuple(
            analyst for server in self._shard_servers for analyst in server.analysts
        )

    @property
    def audit_logs(self) -> tuple[AuditLog, ...]:
        """Per-shard audit logs (an analyst's records all live on one)."""
        return tuple(server.audit_log for server in self._shard_servers)

    def audit_log_for(self, analyst: str) -> AuditLog:
        """The audit log holding the named analyst's records."""
        return self._shard_servers[self.shard_of(analyst)].audit_log

    @property
    def served(self) -> int:
        """Total requests recorded across every shard's audit log."""
        return sum(len(server.audit_log) for server in self._shard_servers)

    @property
    def rejections(self) -> dict[str, int]:
        """Admission-control refusals by reason."""
        # Copy under the lock: a session registering its bucket would
        # otherwise resize the dict mid-iteration.
        with self._buckets_lock:
            buckets = list(self._buckets.values())
        rate_limited = sum(bucket.rejections for bucket in buckets)
        overloaded = sum(gate.rejections for gate in self._gates if gate is not None)
        return {"rate_limit": rate_limited, "overload": overloaded}

    def stats(self) -> dict:
        """Cache statistics merged across every shard's striped cache.

        Top-level ``hits``/``misses``/``evictions``/``entries``/``hit_rate``
        sum over all shards; ``per_shard`` holds each shard's own
        :meth:`~repro.service.cache.StripedAnswerCache.stats` dict (which
        in turn carries ``per_stripe``) for drill-down.
        """
        per_shard = tuple(cache.stats() for cache in self._shard_caches)
        hits = sum(s["hits"] for s in per_shard)
        misses = sum(s["misses"] for s in per_shard)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": sum(s["evictions"] for s in per_shard),
            "entries": sum(s["entries"] for s in per_shard),
            "hit_rate": hits / total if total else 0.0,
            "per_shard": per_shard,
        }

    @property
    def fallback_release(self) -> BinaryRelease | None:
        """The shared synthetic release, if synthesized yet."""
        return self._shard_servers[0].fallback_release

    def close(self) -> None:
        """Drain background audit workers and release serving resources.

        The dispatch is shared across shards, so it is closed once here,
        not per shard.
        """
        self.audit_dispatch.flush()
        self.audit_dispatch.close()

    def __enter__(self) -> "ShardedQueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedQueryServer(n={self.n}, shards={self.shards}, "
            f"analysts={len(self.analysts)}, served={self.served})"
        )
