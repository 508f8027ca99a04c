"""Benchmark: query-service throughput, concurrent scaling, auditor overhead.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --loadgen-only

**Single-session throughput.**  One analyst asks ``q`` distinct queries
against an ``n``-bit Laplace server three ways: per-query *uncached* (every
ask draws noise and is charged), per-query *cached* (the same queries
re-asked — fingerprint + cache hit + audit-log append, no charge, no
noise), and *batched* via ``ask_workload`` (one vectorized mechanism call).
Cached and batched passes take the best of ``--repeats`` runs (replay is
free and idempotent), which is what makes the numbers comparable across
noisy machines.  The cached path is asserted to clear **10,000
queries/sec** (the ISSUE acceptance bar); cache hits are also asserted
bit-identical to the first release.

**Concurrent sessions.**  ``k in {1, 2, 4, 8, 16}`` analyst threads ask
their own query streams against one :class:`ShardedQueryServer` (16
shards, per-shard striped caches and audit logs, one sharded accountant).
Python threads serialize the pure-Python hot path, so on one core this
measures lock-convoy overhead honestly: the sharded front end's gate is
that cached throughput at the highest session count is **no worse than at
one session** — adding sessions must not collapse the service the way a
single-lock front end does.

**Load generator.**  Closed-loop session churn: ``--loadgen-sessions``
distinct analysts (10^4 and 10^5 in full mode, 64 in smoke) each open a
session, ask a deterministic per-analyst query stream, and replay it for
cache hits, driven by worker threads on a
:class:`~concurrent.futures.ThreadPoolExecutor`.  This exercises the
registry/admission path at session counts the per-analyst-dict design has
to survive, and reports end-to-end sessions/sec (setup included).

**Auditor overhead.**  The same attacker-style batched workload stream is
served with the reconstruction auditor disabled and enabled (audit pass
every ``n/8`` fresh queries); the slowdown is the price of online LP
replay, amortized per query.  A second measurement replays an exact
transcript through the l2-screened auditor cold vs warm-started
(``warm_start_passes=True``): a stored solution that still certifies the
grown transcript costs one matvec instead of a solve.  A third serves the
audited stream with ``audit_dispatch="background"`` — passes on
:class:`~repro.service.AuditWorkerPool` workers, the hot path paying only
an append plus a queue signal — and full mode asserts the serving
overhead stays under the 2x ROADMAP target (``--loadgen-audit`` runs the
load generator against the same background-audited server).

**Compliance gate.**  The release-approval gate
(:class:`repro.compliance.gate.ComplianceGate`) runs at mechanism-spec
registration, never per query, so a gated server's cached hot path must
cost the same as an ungated one's — both are measured on identical replay
streams, and full mode asserts the gated number stays within
``GUARD_TOLERANCE`` of the recorded ungated ``cached_qps`` baseline.  The
post-approval check itself (``gate.require``: one release fingerprint plus
one dict lookup) is timed standalone, alongside the one-time offline
certification cost it amortizes.

**Baseline guard (full mode only).**  The kernel-delegated answering paths
must stay within ``GUARD_TOLERANCE`` of the recorded baselines: the
cached-replay and batched numbers in ``BENCH_service.json``, the
concurrent cached numbers, the uncached (noise-drawing) number at the top
session count, and the batched-answering numbers in
``BENCH_reconstruction.json`` (replicated via
``bench_lp_reconstruction.bench_answering``, best of three passes).

Results are written to ``BENCH_service.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.compliance import (
    ComplianceGate,
    CompliancePipeline,
    DpClaimVerifier,
    Policy,
)
from repro.queries.mechanism import LaplaceAnswerer
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    BasicAccountant,
    CircuitBreakerTripped,
    QueryServer,
    ReconstructionAuditor,
    ShardedQueryServer,
)
from repro.utils.rng import derive_rng

#: The ISSUE acceptance bar for the cached per-query path.
MIN_CACHED_QPS = 10_000.0

#: Allowed throughput regression against the recorded baselines (fraction).
GUARD_TOLERANCE = 0.10

#: Shard count of the concurrent front end under test.
SHARDS = 16

#: ROADMAP target for background auditing: serving an audited stream may
#: cost at most this factor over the un-audited stream.
MAX_BACKGROUND_AUDIT_OVERHEAD = 2.0


def _make_server(
    n: int,
    seed: int,
    auditor: ReconstructionAuditor | None = None,
    audit_dispatch: str | None = None,
) -> QueryServer:
    data = derive_rng(seed, "bench-data", n).integers(0, 2, size=n)
    return QueryServer(
        data,
        mechanism="laplace",
        mechanism_params={"epsilon_per_query": 0.25},
        accountant=BasicAccountant(),
        auditor=auditor,
        seed=seed,
        audit_dispatch=audit_dispatch,
    )


def _make_sharded(
    n: int,
    seed: int,
    auditor: ReconstructionAuditor | None = None,
    audit_dispatch: str | None = None,
) -> ShardedQueryServer:
    data = derive_rng(seed, "bench-data", n).integers(0, 2, size=n)
    return ShardedQueryServer(
        data,
        mechanism="laplace",
        mechanism_params={"epsilon_per_query": 0.25},
        seed=seed,
        shards=SHARDS,
        auditor=auditor,
        audit_dispatch=audit_dispatch,
    )


def bench_single_session(n: int, num_queries: int, seed: int, repeats: int = 3) -> dict:
    """Uncached vs cached vs batched throughput for one analyst."""
    workload = Workload.random(n, num_queries, rng=derive_rng(seed, "bench-w", n))
    queries = list(workload)

    server = _make_server(n, seed)
    session = server.session("analyst")
    start = time.perf_counter()
    first = np.array([session.ask(query) for query in queries])
    uncached_elapsed = time.perf_counter() - start

    cached_elapsed = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        replay = np.array([session.ask(query) for query in queries])
        cached_elapsed = min(cached_elapsed, time.perf_counter() - start)
        assert np.array_equal(first, replay), "cache replay diverged from first release"
    assert session.queries_charged == num_queries, "cache hits must not be re-charged"

    batched_elapsed = float("inf")
    for _ in range(max(1, repeats)):
        batch_session = _make_server(n, seed).session("analyst")
        start = time.perf_counter()
        batched = batch_session.ask_workload(workload)
        batched_elapsed = min(batched_elapsed, time.perf_counter() - start)
        # Same analyst name + seed => same noise stream: the batched answers
        # must be bit-identical to the per-query uncached pass.
        assert np.array_equal(batched, first), "batched answers diverged from per-query"

    cached_qps = num_queries / max(cached_elapsed, 1e-9)
    assert cached_qps >= MIN_CACHED_QPS, (
        f"cached throughput {cached_qps:,.0f} q/s below the {MIN_CACHED_QPS:,.0f} bar"
    )
    return {
        "n": n,
        "queries": num_queries,
        "uncached_qps": num_queries / max(uncached_elapsed, 1e-9),
        "cached_qps": cached_qps,
        "batched_qps": num_queries / max(batched_elapsed, 1e-9),
        "cache_hit_rate": session.cache.hit_rate,
    }


def bench_compliance_gate(n: int, num_queries: int, seed: int, repeats: int = 3) -> dict:
    """Gate overhead on the cached hot path + the O(1) post-approval check.

    Certifies the exact Laplace spec the server charges (offline, timed
    once), opens gated and ungated servers over the same data/seed, replays
    one identical query stream through both caches (best of ``repeats``),
    and times ``gate.require`` standalone.  The gate runs at registration
    only, so the two cached numbers must be statistically identical.
    """
    data = derive_rng(seed, "bench-data", n).integers(0, 2, size=n)
    policy = Policy(name="bench-service", dp_trials=300)
    spec = LaplaceAnswerer(data, 0.25).spec
    pipeline = CompliancePipeline([DpClaimVerifier()], policy, seed=seed)
    start = time.perf_counter()
    certificate = pipeline.certify(spec, data=data, subject="mechanism-spec")
    certify_seconds = time.perf_counter() - start
    assert certificate.approved, "the benchmark spec must certify cleanly"
    gate = ComplianceGate(policy)
    gate.approve(certificate, spec)

    workload = Workload.random(n, num_queries, rng=derive_rng(seed, "bench-w", n))
    queries = list(workload)

    def cached_replay(compliance: ComplianceGate | None) -> float:
        server = QueryServer(
            data,
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.25},
            accountant=BasicAccountant(),
            seed=seed,
            compliance=compliance,
        )
        session = server.session("analyst")
        for query in queries:  # populate the cache
            session.ask(query)
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for query in queries:
                session.ask(query)
            best = min(best, time.perf_counter() - start)
        return num_queries / max(best, 1e-9)

    gated_qps = cached_replay(gate)
    ungated_qps = cached_replay(None)

    require_calls = 10_000
    start = time.perf_counter()
    for _ in range(require_calls):
        gate.require(spec, subject="mechanism-spec")
    require_elapsed = time.perf_counter() - start

    return {
        "n": n,
        "queries": num_queries,
        "gated_cached_qps": gated_qps,
        "ungated_cached_qps": ungated_qps,
        "gate_overhead_ratio": ungated_qps / max(gated_qps, 1e-9),
        "certify_seconds": certify_seconds,
        "require_calls": require_calls,
        "require_seconds_per_call": require_elapsed / require_calls,
    }


def bench_telemetry(n: int, num_queries: int, seed: int, repeats: int = 3) -> dict:
    """Telemetry overhead on the cached hot path, inside the guard band.

    Two servers over the same data and seed — one with an isolated
    :class:`~repro.telemetry.Telemetry` (the ``REPRO_TELEMETRY=1``
    configuration, minus the shared default registry), one with telemetry
    off — replay one identical query stream through their caches.  The
    timed passes are interleaved (instrumented, off, instrumented, ...)
    and each side keeps its best of ``repeats``, so machine-load jitter
    hits both configurations symmetrically.  Replayed answers are
    asserted bit-identical (telemetry is a pure observer) and the
    instrumented cached throughput must stay within ``GUARD_TOLERANCE``
    of the uninstrumented number: the fused hit path budgets one clock
    read and a counter bump per hit, with the full histogram record
    latency-sampled every 8th hit.
    """
    from repro.telemetry import NULL_TELEMETRY, Telemetry, to_prometheus

    data = derive_rng(seed, "bench-data", n).integers(0, 2, size=n)
    workload = Workload.random(n, num_queries, rng=derive_rng(seed, "bench-w", n))
    queries = list(workload)

    def make_session(telemetry):
        server = QueryServer(
            data,
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.25},
            accountant=BasicAccountant(),
            seed=seed,
            telemetry=telemetry,
        )
        session = server.session("analyst")
        answers = np.array([session.ask(query) for query in queries])
        return session, answers

    def timed_pass(session) -> float:
        start = time.perf_counter()
        for query in queries:
            session.ask(query)
        return time.perf_counter() - start

    telemetry = Telemetry()
    instrumented_session, instrumented_answers = make_session(telemetry)
    off_session, off_answers = make_session(NULL_TELEMETRY)
    assert np.array_equal(instrumented_answers, off_answers), (
        "telemetry changed served answers"
    )
    # Interleave the timed passes so a load spike or frequency shift hits
    # both servers symmetrically: an A-block-then-B-block layout turns any
    # mid-bench slowdown into a phantom overhead (or phantom speedup).
    instrumented_best = off_best = float("inf")
    for _ in range(max(1, repeats)):
        instrumented_best = min(instrumented_best, timed_pass(instrumented_session))
        off_best = min(off_best, timed_pass(off_session))
    instrumented_qps = num_queries / max(instrumented_best, 1e-9)
    off_qps = num_queries / max(off_best, 1e-9)
    snap = telemetry.snapshot()
    hit_point = snap.histogram_point(
        "repro_serve_stage_seconds",
        stage="cache_hit_fastpath",
        shard="0",
        mechanism="laplace",
    )
    assert hit_point is not None and hit_point.count > 0, (
        "instrumented replay recorded no fast-path samples"
    )
    assert to_prometheus(snap), "snapshot rendered empty"
    return {
        "n": n,
        "queries": num_queries,
        "telemetry_cached_qps": instrumented_qps,
        "off_cached_qps": off_qps,
        "overhead_ratio": off_qps / max(instrumented_qps, 1e-9),
        "fastpath_samples": hit_point.count,
        "fastpath_mean_seconds": hit_point.sum / max(hit_point.count, 1),
    }


def bench_concurrent(
    n: int, per_session: int, sessions: int, seed: int, repeats: int = 3
) -> dict:
    """Aggregate throughput with ``sessions`` threads on one sharded server."""
    server = _make_sharded(n, seed)
    streams = []
    for index in range(sessions):
        workload = Workload.random(
            n, per_session, rng=derive_rng(seed, "bench-c", n, index)
        )
        streams.append((server.session(f"analyst-{index}"), list(workload)))

    def run(entry):
        session, queries = entry
        for query in queries:
            session.ask(query)

    def timed() -> float:
        threads = [threading.Thread(target=run, args=(entry,)) for entry in streams]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    uncached_elapsed = timed()  # first pass: all misses
    cached_elapsed = min(timed() for _ in range(max(1, repeats)))  # all hits
    total = per_session * sessions
    return {
        "sessions": sessions,
        "n": n,
        "queries_total": total,
        "uncached_qps": total / max(uncached_elapsed, 1e-9),
        "cached_qps": total / max(cached_elapsed, 1e-9),
    }


def bench_load_generator(
    n: int,
    total_sessions: int,
    queries_per_session: int,
    seed: int,
    workers: int = 8,
    audit: bool = False,
) -> dict:
    """Closed-loop session churn: many short-lived analysts, few workers.

    Each analyst asks ``queries_per_session // 2`` distinct queries from
    its own deterministic stream, then replays them (cache hits), so the
    aggregate hit rate is 0.5 by construction.  Worker ``w`` of a thread
    pool drains sessions ``w, w + workers, ...`` — a closed-loop load
    generator, not an open-loop arrival process: each worker starts the
    next session only when the previous one finishes.

    With ``audit=True`` the sharded server runs a reconstruction auditor
    behind :class:`~repro.service.AuditWorkerPool` background workers
    (never-trip threshold, small pass interval), so the run exercises the
    full serve-then-audit machinery under session churn; the pool is
    flushed and closed before reporting, and pass/error counts land in
    the result.
    """
    auditor = None
    if audit:
        auditor = ReconstructionAuditor(
            derive_rng(seed, "bench-data", n).integers(0, 2, size=n),
            agreement_threshold=1.0,  # never trip: the load must all serve
            audit_every=max(1, queries_per_session // 2),
            min_queries=max(1, queries_per_session // 2),
            alpha=None,
            screen="l2",
        )
    server = _make_sharded(
        n,
        seed,
        auditor=auditor,
        audit_dispatch="background" if audit else None,
    )
    distinct = max(1, queries_per_session // 2)

    def run_range(indices) -> int:
        served = 0
        for index in indices:
            session = server.session(f"load-{index}")
            rng = derive_rng(seed, "bench-load", n, index)
            queries = [SubsetQuery(rng.random(n) < 0.5) for _ in range(distinct)]
            for query in queries:
                session.ask(query)
            for query in queries:  # replay: served from cache, charged nothing
                session.ask(query)
            served += 2 * len(queries)
        return served

    ranges = [range(worker, total_sessions, workers) for worker in range(workers)]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        served = sum(pool.map(run_range, ranges))
    elapsed = time.perf_counter() - start

    audit_stats = None
    if audit:
        drained = server.audit_dispatch.flush(timeout=300.0)
        server.close()
        audit_stats = {
            "drained": drained,
            "audit_passes": len(auditor.reports),
            "audit_errors": len(getattr(server.audit_dispatch, "errors", ())),
            "analysts_flagged": sum(
                auditor.is_tripped(f"load-{i}") for i in range(total_sessions)
            ),
        }
        assert drained, "background audit pool failed to drain"
        assert audit_stats["audit_errors"] == 0, "background audit passes errored"
        assert audit_stats["analysts_flagged"] == 0, "never-trip auditor flagged"

    shard_caches = [server.shard_cache(i) for i in range(SHARDS)]
    hits = sum(cache.hits for cache in shard_caches)
    misses = sum(cache.misses for cache in shard_caches)
    result = {
        "sessions": total_sessions,
        "workers": workers,
        "queries_per_session": 2 * distinct,
        "queries_total": served,
        "elapsed_seconds": elapsed,
        "sessions_per_second": total_sessions / max(elapsed, 1e-9),
        "qps": served / max(elapsed, 1e-9),
        "cache_hit_rate": hits / max(hits + misses, 1),
        "rejections": server.rejections,
    }
    if audit_stats is not None:
        result["background_audit"] = audit_stats
    return result


def bench_auditor_overhead(n: int, seed: int) -> dict:
    """Batched attack stream with the auditor off vs on."""
    batches = [
        Workload.random(n, n // 8, rng=derive_rng(seed, "bench-audit", n, index))
        for index in range(12)
    ]

    plain = _make_server(n, seed)
    session = plain.session("attacker")
    start = time.perf_counter()
    for workload in batches:
        session.ask_workload(workload)
    plain_elapsed = time.perf_counter() - start

    auditor = ReconstructionAuditor(
        derive_rng(seed, "bench-data", n).integers(0, 2, size=n),
        agreement_threshold=1.0,  # never trip: measure full-stream overhead
        audit_every=n // 8,
        min_queries=n // 4,
        alpha=None,
    )
    audited = _make_server(n, seed, auditor=auditor)
    session = audited.session("attacker")
    start = time.perf_counter()
    try:
        for workload in batches:
            session.ask_workload(workload)
    except CircuitBreakerTripped:  # pragma: no cover - threshold 1.0
        pass
    audited_elapsed = time.perf_counter() - start

    total = sum(len(w) for w in batches)
    passes = len(auditor.reports)
    return {
        "n": n,
        "queries": total,
        "audit_passes": passes,
        "plain_qps": total / max(plain_elapsed, 1e-9),
        "audited_qps": total / max(audited_elapsed, 1e-9),
        "overhead_ratio": audited_elapsed / max(plain_elapsed, 1e-9),
        "lp_seconds_per_pass": (
            sum(r.elapsed_seconds for r in auditor.reports) / passes if passes else 0.0
        ),
    }


def bench_background_audit(n: int, seed: int, repeats: int = 3) -> dict:
    """Serving cost of auditing when the passes run on background workers.

    The inline number above (``auditor.overhead_ratio``) charges every LP
    replay to the serving thread — two orders of magnitude at full size.
    Here the same never-trip audited stream is served with
    ``audit_dispatch="background"``: the hot path pays only the audit-log
    append plus a queue signal, and the l2-screened, warm-started passes
    run on :class:`~repro.service.AuditWorkerPool` workers.  The serving
    loop is timed on its own (that is the QPS an analyst sees), the drain
    of the remaining passes separately.  The ROADMAP target is
    ``overhead_ratio < 2`` — audited serving at worst half the un-audited
    throughput — which is also asserted in full runs.
    """
    batches = [
        Workload.random(n, n // 8, rng=derive_rng(seed, "bench-audit", n, index))
        for index in range(12)
    ]
    total = sum(len(w) for w in batches)

    # Fresh servers per repeat (serving fresh queries is not idempotent);
    # best-of keeps the number stable against scheduler jitter, the same
    # convention as the cached passes above.
    plain_elapsed = float("inf")
    for _ in range(max(1, repeats)):
        session = _make_server(n, seed).session("attacker")
        start = time.perf_counter()
        for workload in batches:
            session.ask_workload(workload)
        plain_elapsed = min(plain_elapsed, time.perf_counter() - start)

    audited_elapsed = float("inf")
    drain_elapsed = passes = 0
    for _ in range(max(1, repeats)):
        auditor = ReconstructionAuditor(
            derive_rng(seed, "bench-data", n).integers(0, 2, size=n),
            agreement_threshold=1.0,  # never trip: measure full-stream cost
            audit_every=n // 8,
            min_queries=n // 4,
            alpha=None,
            screen="l2",
            warm_start_passes=True,
        )
        audited = _make_server(n, seed, auditor=auditor, audit_dispatch="background")
        session = audited.session("attacker")
        start = time.perf_counter()
        for workload in batches:
            session.ask_workload(workload)
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        drained = audited.audit_dispatch.flush(timeout=600.0)
        audited.close()
        assert drained, "background audit pool failed to drain"
        if elapsed < audited_elapsed:
            audited_elapsed = elapsed
            drain_elapsed = time.perf_counter() - start
            passes = len(auditor.reports)

    overhead = audited_elapsed / max(plain_elapsed, 1e-9)
    return {
        "n": n,
        "queries": total,
        "audit_passes": passes,
        "plain_qps": total / max(plain_elapsed, 1e-9),
        "audited_qps": total / max(audited_elapsed, 1e-9),
        "overhead_ratio": overhead,
        "overhead_target": MAX_BACKGROUND_AUDIT_OVERHEAD,
        "drain_seconds": drain_elapsed,
        "meets_target": overhead < MAX_BACKGROUND_AUDIT_OVERHEAD,
    }


def bench_auditor_warm_start(n: int, seed: int, passes: int = 4) -> dict:
    """Periodic re-audit cost over a fixed transcript, cold vs warm-started.

    This is the steady-state regime of a background auditing sweep: the
    analyst's transcript is unchanged (or barely grown) between passes, so
    the previous pass's solution is already (near-)optimal for the next
    one.  Cold, every l2-screened pass re-solves from the center of the
    cube; warm, the solver starts at the stored solution and converges
    immediately.  The first warm pass still solves (there is nothing
    stored yet), so the steady-state number averages the passes after it.
    Verdicts are identical by construction — warm starts change where the
    solver *starts*, never what it accepts.
    """
    server = _make_server(n, seed)
    session = server.session("attacker")
    workload = Workload.random(n, int(1.5 * n), rng=derive_rng(seed, "bench-warm", n))
    session.ask_workload(workload)
    log = server.audit_log
    data = derive_rng(seed, "bench-data", n).integers(0, 2, size=n)

    def replay(warm: bool) -> tuple[list[float], tuple]:
        auditor = ReconstructionAuditor(
            data,
            agreement_threshold=1.0,
            audit_every=n // 8,
            min_queries=n // 4,
            alpha=None,
            screen="l2",
            screen_margin=0.0,  # stay in the l2 screen: no LP escalation
            warm_start_passes=warm,
        )
        reports = [auditor.audit(log, "attacker") for _ in range(passes)]
        times = [r.elapsed_seconds for r in reports]
        return times, tuple((r.agreement, r.flagged) for r in reports)

    cold_times, cold_verdicts = replay(warm=False)
    warm_times, warm_verdicts = replay(warm=True)
    assert warm_verdicts == cold_verdicts, "warm starts must not change verdicts"
    cold_seconds = sum(cold_times) / len(cold_times)
    warm_seconds = sum(warm_times[1:]) / max(len(warm_times) - 1, 1)
    return {
        "n": n,
        "transcript_queries": len(workload),
        "audit_passes": passes,
        "cold_seconds_per_pass": cold_seconds,
        "warm_first_pass_seconds": warm_times[0],
        "warm_seconds_per_pass": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-9),
    }


def _load_baseline(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def guard_against_baselines(
    single: dict,
    concurrent: list[dict],
    repo_root: Path,
    seed: int,
    compliance: dict | None = None,
    background: dict | None = None,
) -> list[str]:
    """Assert the kernel-delegated answering paths hold the recorded numbers.

    Compares one-sidedly — a run may be faster than its baseline, but more
    than ``GUARD_TOLERANCE`` slower fails.  Each check that runs is
    reported; baselines that are missing or recorded at other sizes are
    skipped silently (there is nothing to regress against).
    """
    checks: list[str] = []

    service = _load_baseline(repo_root / "BENCH_service.json")
    if service and not service.get("smoke"):
        base = service.get("single_session", {})
        if base.get("n") == single["n"] and base.get("queries") == single["queries"]:
            for key in ("cached_qps", "batched_qps"):
                floor = base[key] * (1.0 - GUARD_TOLERANCE)
                assert single[key] >= floor, (
                    f"{key} regressed: {single[key]:,.0f} q/s < "
                    f"{floor:,.0f} q/s ({(1 - GUARD_TOLERANCE):.0%} of the "
                    f"recorded {base[key]:,.0f} q/s baseline)"
                )
                checks.append(
                    f"service {key}: {single[key]:,.0f} q/s >= {floor:,.0f} q/s"
                )
        # Compliance guard: the gate runs at registration only, so the
        # gated cached hot path must hold the committed ungated baseline.
        if (
            compliance is not None
            and base.get("n") == compliance["n"]
            and base.get("queries") == compliance["queries"]
        ):
            floor = base["cached_qps"] * (1.0 - GUARD_TOLERANCE)
            assert compliance["gated_cached_qps"] >= floor, (
                f"gated cached_qps regressed: "
                f"{compliance['gated_cached_qps']:,.0f} q/s < {floor:,.0f} q/s "
                f"({(1 - GUARD_TOLERANCE):.0%} of the recorded ungated "
                f"{base['cached_qps']:,.0f} q/s baseline)"
            )
            checks.append(
                f"compliance gated_cached_qps: "
                f"{compliance['gated_cached_qps']:,.0f} q/s >= {floor:,.0f} q/s"
            )
        # Concurrent guard: only against baselines recorded for the sharded
        # front end (older files recorded the single-lock server; skip those).
        scaling = service.get("concurrent_scaling", {})
        base_concurrent = {
            entry.get("sessions"): entry for entry in service.get("concurrent", [])
        }
        if scaling.get("server", "").startswith("ShardedQueryServer"):
            for live in concurrent:
                base = base_concurrent.get(live["sessions"])
                if not base or base.get("n") != live["n"]:
                    continue
                floor = base["cached_qps"] * (1.0 - GUARD_TOLERANCE)
                assert live["cached_qps"] >= floor, (
                    f"concurrent cached_qps at {live['sessions']} sessions "
                    f"regressed: {live['cached_qps']:,.0f} q/s < {floor:,.0f} q/s "
                    f"({(1 - GUARD_TOLERANCE):.0%} of the recorded "
                    f"{base['cached_qps']:,.0f} q/s baseline)"
                )
                checks.append(
                    f"concurrent cached_qps @{live['sessions']}: "
                    f"{live['cached_qps']:,.0f} q/s >= {floor:,.0f} q/s"
                )
            # Uncached guard: at the top session count every ask is a fresh
            # query (fingerprint, charge, Laplace draw on the serving
            # thread), so this pins the noise-drawing path's throughput.
            top = concurrent[-1]
            base = base_concurrent.get(top["sessions"])
            if base and base.get("n") == top["n"]:
                floor = base["uncached_qps"] * (1.0 - GUARD_TOLERANCE)
                assert top["uncached_qps"] >= floor, (
                    f"concurrent uncached_qps at {top['sessions']} sessions "
                    f"regressed: {top['uncached_qps']:,.0f} q/s < {floor:,.0f} q/s "
                    f"({(1 - GUARD_TOLERANCE):.0%} of the recorded "
                    f"{base['uncached_qps']:,.0f} q/s baseline)"
                )
                checks.append(
                    f"concurrent uncached_qps @{top['sessions']}: "
                    f"{top['uncached_qps']:,.0f} q/s >= {floor:,.0f} q/s"
                )
        # Background-audit guard: audited serving throughput holds its
        # recorded number (the <2x target itself is asserted in main()).
        base = service.get("auditor", {}).get("background", {})
        if background is not None and base.get("n") == background["n"]:
            floor = base["audited_qps"] * (1.0 - GUARD_TOLERANCE)
            assert background["audited_qps"] >= floor, (
                f"background audited_qps regressed: "
                f"{background['audited_qps']:,.0f} q/s < {floor:,.0f} q/s "
                f"({(1 - GUARD_TOLERANCE):.0%} of the recorded "
                f"{base['audited_qps']:,.0f} q/s baseline)"
            )
            checks.append(
                f"background audited_qps: {background['audited_qps']:,.0f} q/s "
                f">= {floor:,.0f} q/s"
            )

    reconstruction = _load_baseline(repo_root / "BENCH_reconstruction.json")
    if reconstruction and not reconstruction.get("smoke") and reconstruction.get("answering"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        try:
            from bench_lp_reconstruction import bench_answering
        finally:
            sys.path.pop(0)
        recon_seed = int(reconstruction.get("seed", seed))
        for entry in reconstruction["answering"]:
            n, m = int(entry["n"]), int(entry["m"])
            best = min(
                bench_answering(n, recon_seed)["batched_seconds"] for _ in range(3)
            )
            live_qps = m / max(best, 1e-9)
            base_qps = m / max(float(entry["batched_seconds"]), 1e-9)
            floor = base_qps * (1.0 - GUARD_TOLERANCE)
            assert live_qps >= floor, (
                f"batched answering at n={n} regressed: {live_qps:,.0f} q/s < "
                f"{floor:,.0f} q/s ({(1 - GUARD_TOLERANCE):.0%} of the "
                f"recorded {base_qps:,.0f} q/s baseline)"
            )
            checks.append(
                f"reconstruction answering n={n}: {live_qps:,.0f} q/s >= "
                f"{floor:,.0f} q/s"
            )
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes for CI")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sessions", type=int, nargs="+", default=None, help="concurrency levels"
    )
    parser.add_argument(
        "--loadgen-sessions",
        type=int,
        nargs="+",
        default=None,
        help="load-generator session counts",
    )
    parser.add_argument(
        "--loadgen-only",
        action="store_true",
        help="run only the load generator (skip everything else; implies --no-write)",
    )
    parser.add_argument(
        "--loadgen-audit",
        action="store_true",
        help="run the load generator with background auditor workers enabled",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="best-of repeats for cached passes (5: a single-core box needs a "
        "deeper best-of to de-noise the short cached windows)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_service.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip writing the JSON file"
    )
    args = parser.parse_args(argv)

    n = 128 if args.smoke else 512
    num_queries = 2_000 if args.smoke else 8_000
    per_session = 250 if args.smoke else 1_000
    session_counts = args.sessions or ([1, 2, 4] if args.smoke else [1, 2, 4, 8, 16])
    loadgen_counts = args.loadgen_sessions or (
        [64] if args.smoke else [10_000, 100_000]
    )

    loadgen = []
    for count in loadgen_counts:
        entry = bench_load_generator(n, count, 8, args.seed, audit=args.loadgen_audit)
        loadgen.append(entry)
        audited = ""
        if "background_audit" in entry:
            stats = entry["background_audit"]
            audited = (
                f", {stats['audit_passes']} background audit passes, "
                f"{stats['audit_errors']} errors"
            )
        print(
            f"load generator: {count:,} sessions in {entry['elapsed_seconds']:.1f}s "
            f"({entry['sessions_per_second']:,.0f} sessions/s, "
            f"{entry['qps']:,.0f} q/s end-to-end{audited})",
            flush=True,
        )
    if args.loadgen_only:
        return 0

    single = bench_single_session(n, num_queries, args.seed, repeats=args.repeats)
    print(
        f"single session n={n}: uncached {single['uncached_qps']:,.0f} q/s, "
        f"cached {single['cached_qps']:,.0f} q/s, "
        f"batched {single['batched_qps']:,.0f} q/s",
        flush=True,
    )

    compliance = bench_compliance_gate(n, num_queries, args.seed, repeats=args.repeats)
    print(
        f"compliance gate n={n}: gated cached {compliance['gated_cached_qps']:,.0f} q/s "
        f"vs ungated {compliance['ungated_cached_qps']:,.0f} q/s "
        f"({compliance['gate_overhead_ratio']:.2f}x), "
        f"require() {compliance['require_seconds_per_call'] * 1e6:.1f}us/call, "
        f"certify {compliance['certify_seconds']:.2f}s once",
        flush=True,
    )

    telemetry = bench_telemetry(n, num_queries, args.seed, repeats=args.repeats)
    print(
        f"telemetry n={n}: instrumented cached "
        f"{telemetry['telemetry_cached_qps']:,.0f} q/s vs off "
        f"{telemetry['off_cached_qps']:,.0f} q/s "
        f"({telemetry['overhead_ratio']:.3f}x, fast path "
        f"{telemetry['fastpath_mean_seconds'] * 1e9:.0f}ns/sample)",
        flush=True,
    )
    if not args.smoke:
        # The ISSUE gate: telemetry must cost the cached hot path no more
        # than the same guard band we allow for run-to-run jitter.
        assert telemetry["overhead_ratio"] <= 1.0 + GUARD_TOLERANCE, (
            f"telemetry slowed the cached path "
            f"{telemetry['overhead_ratio']:.3f}x "
            f"(> {1.0 + GUARD_TOLERANCE:.2f}x guard band): "
            f"{telemetry['telemetry_cached_qps']:,.0f} q/s instrumented vs "
            f"{telemetry['off_cached_qps']:,.0f} q/s off"
        )

    concurrent = []
    for count in session_counts:
        entry = bench_concurrent(n, per_session, count, args.seed, repeats=args.repeats)
        concurrent.append(entry)
        print(
            f"{count:>2} sessions: uncached {entry['uncached_qps']:,.0f} q/s, "
            f"cached {entry['cached_qps']:,.0f} q/s",
            flush=True,
        )
    low, high = concurrent[0], concurrent[-1]
    scaling_ratio = high["cached_qps"] / max(low["cached_qps"], 1e-9)
    # "Must not collapse" with the same jitter tolerance as the committed
    # baselines: on a loaded box the cached path wobbles a few percent
    # run-to-run, which is noise, not a scaling regression.
    scaling_ok = high["cached_qps"] >= low["cached_qps"] * (1.0 - GUARD_TOLERANCE)
    print(
        f"scaling: cached @{high['sessions']} sessions is {scaling_ratio:.2f}x "
        f"@{low['sessions']} session{'s' if low['sessions'] > 1 else ''}",
        flush=True,
    )
    if not args.smoke:
        # The ISSUE gate: adding sessions must not collapse the sharded
        # front end's cached throughput below its single-session number.
        assert scaling_ok, (
            f"cached throughput fell from {low['cached_qps']:,.0f} q/s at "
            f"{low['sessions']} session(s) to {high['cached_qps']:,.0f} q/s "
            f"at {high['sessions']} sessions"
        )

    audit = bench_auditor_overhead(n, args.seed)
    print(
        f"auditor: {audit['audit_passes']} passes, "
        f"{audit['overhead_ratio']:.2f}x stream slowdown, "
        f"{audit['lp_seconds_per_pass']:.3f}s per LP replay",
        flush=True,
    )
    background = bench_background_audit(n, args.seed)
    audit["background"] = background
    print(
        f"auditor background: {background['audit_passes']} passes off the hot "
        f"path, {background['overhead_ratio']:.2f}x serving slowdown "
        f"(target < {background['overhead_target']:.0f}x), "
        f"drain {background['drain_seconds']:.2f}s",
        flush=True,
    )
    if not args.smoke:
        # The ROADMAP gate: background auditing must keep the serving path
        # within 2x of the un-audited stream.
        assert background["meets_target"], (
            f"background-audited serving overhead "
            f"{background['overhead_ratio']:.2f}x breaches the "
            f"{background['overhead_target']:.0f}x ROADMAP target"
        )
    warm = bench_auditor_warm_start(n, args.seed)
    audit["warm_start"] = warm
    print(
        f"auditor warm start: {warm['cold_seconds_per_pass']:.4f}s cold vs "
        f"{warm['warm_seconds_per_pass']:.4f}s warm per pass "
        f"({warm['speedup']:.1f}x over {warm['audit_passes']} passes)",
        flush=True,
    )

    guard_checks: list[str] = []
    if not args.smoke:
        repo_root = Path(__file__).resolve().parent.parent
        guard_checks = guard_against_baselines(
            single,
            concurrent,
            repo_root,
            args.seed,
            compliance=compliance,
            background=background,
        )
        for line in guard_checks:
            print(f"guard: {line}", flush=True)

    payload = {
        "benchmark": "service_throughput",
        "smoke": args.smoke,
        "seed": args.seed,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "min_cached_qps_bar": MIN_CACHED_QPS,
        "guard_tolerance": GUARD_TOLERANCE,
        "baseline_guard": guard_checks,
        "single_session": single,
        "compliance": compliance,
        "telemetry": telemetry,
        "concurrent": concurrent,
        "concurrent_scaling": {
            "server": f"ShardedQueryServer(shards={SHARDS})",
            "sessions_low": low["sessions"],
            "sessions_high": high["sessions"],
            "cached_qps_low": low["cached_qps"],
            "cached_qps_high": high["cached_qps"],
            "scaling_ratio": scaling_ratio,
            "scaling_ok": scaling_ok,
            "load_generator": loadgen,
        },
        "auditor": audit,
    }
    if not args.no_write:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
