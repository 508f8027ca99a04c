"""Telemetry across the serve stack: instruments fill, answers never change.

Two contracts are pinned here.  First, the *observability* contract: with
telemetry enabled, every serve step's latency histogram fills, admission
rejects are counted by reason, cache and audit and budget state is visible
in one snapshot.  Second — the one that matters for the paper — the
*bit-identity* contract: telemetry must be a pure observer.  Answers,
budget-exhaustion points, and audit verdicts are byte-for-byte identical
with telemetry on or off, because the instrumentation never touches RNG
streams, lock ordering, or served values.
"""

import threading

import numpy as np
import pytest

from repro.compliance import ComplianceDenied, ComplianceGate
from repro.privacy.accounting import BasicAccountant, BudgetExhausted, ShardedAccountant
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    AuditLog,
    CircuitBreakerTripped,
    QueryServer,
    RateLimit,
    ReconstructionAuditor,
    Rejected,
    ShardedQueryServer,
    query_fingerprint,
)
from repro.service.audit_worker import AuditWorkerPool
from repro.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry, to_prometheus
from repro.telemetry.instrument import (
    ADMISSION_REJECTS,
    AUDIT_PASS_SECONDS,
    AUDIT_QUEUE_DEPTH,
    BUDGET_EPSILON_REMAINING,
    BUDGET_EPSILON_SPENT,
    CACHE_EVICTIONS,
    CACHE_HITS,
    COMPLIANCE_DENIALS,
    COMPLIANCE_REQUIRE_SECONDS,
    LEASE_RECONCILIATIONS,
    REQUESTS_TOTAL,
    STAGE_SECONDS,
    analyst_digest_prefix,
)
from repro.utils.rng import derive_rng

N = 96
STAGES = (
    "compliance",
    "cache_lookup",
    "budget_reserve",
    "execute",
    "cache_put",
    "audit_append",
)


def make_data(seed=11):
    return derive_rng(seed, "telemetry-test").integers(0, 2, size=N)


def make_queries(count, seed=5):
    rng = derive_rng(seed, "telemetry-queries")
    return [SubsetQuery(rng.random(N) < 0.5) for _ in range(count)]


class TestPipelineInstrumentation:
    def test_workload_fills_every_stage_histogram(self):
        telemetry = Telemetry()
        server = QueryServer(make_data(), telemetry=telemetry)
        server.ask_workload("alice", Workload.random(N, 8, rng=0))
        snap = telemetry.snapshot()
        for stage in STAGES:
            point = snap.histogram_point(
                STAGE_SECONDS, stage=stage, shard="0", mechanism="laplace"
            )
            assert point is not None and point.count > 0, stage

    def test_single_miss_and_fused_hit_paths(self):
        telemetry = Telemetry()
        server = QueryServer(make_data(), telemetry=telemetry)
        query = make_queries(1)[0]
        server.ask("alice", query)
        server.ask("alice", query)
        snap = telemetry.snapshot()
        miss = snap.histogram_point(
            STAGE_SECONDS, stage="single_miss", shard="0", mechanism="laplace"
        )
        hit = snap.histogram_point(
            STAGE_SECONDS, stage="cache_hit_fastpath", shard="0", mechanism="laplace"
        )
        assert miss.count == 1
        assert hit.count == 1
        assert miss.sum > 0 and hit.sum > 0

    def test_requests_counted_per_analyst_digest(self):
        telemetry = Telemetry()
        server = QueryServer(make_data(), telemetry=telemetry)
        queries = make_queries(3)
        for query in queries:
            server.ask("alice", query)
        snap = telemetry.snapshot()
        value = snap.counter_value(
            REQUESTS_TOTAL,
            analyst=analyst_digest_prefix("alice"),
            shard="0",
            mechanism="laplace",
        )
        assert value == 3.0

    def test_stage_names_and_repr_unchanged(self):
        instrumented = QueryServer(make_data(), telemetry=Telemetry())
        plain = QueryServer(make_data(), telemetry=NULL_TELEMETRY)
        assert repr(instrumented.pipeline) == repr(plain.pipeline)

    def test_disabled_reads_no_clock(self, monkeypatch):
        def clock():
            raise AssertionError("clock read with telemetry off")

        monkeypatch.setattr(NullTelemetry, "clock", staticmethod(clock))
        server = QueryServer(make_data(), telemetry=NULL_TELEMETRY)
        assert server.pipeline._clock is None
        query = make_queries(1)[0]
        server.ask("alice", query)
        server.ask("alice", query)
        server.ask_workload("alice", make_queries(3, seed=6) + [query])
        assert len(server.audit_log) == 6


def step_counts(telemetry) -> dict[str, int]:
    """Latency samples per ``stage`` label, summed over shards."""
    counts = dict.fromkeys(STAGES + ("cache_hit_fastpath", "single_miss", "admission"), 0)
    for point in telemetry.snapshot().histograms:
        if point.name == STAGE_SECONDS:
            counts[dict(point.labels)["stage"]] += point.count
    return counts


class TestStepCounts:
    """Exactly which requests feed which step histogram.

    A step that raises is timed; a single ask times its miss steps but
    not its compliance check or cache probe; a batch times all six.
    """

    def test_single_server_with_refusals_and_a_tripped_analyst(self):
        telemetry = Telemetry()
        data = make_data()
        auditor = ReconstructionAuditor(data)
        server = QueryServer(
            data,
            "laplace",
            {"epsilon_per_query": 0.5},
            accountant=BasicAccountant(per_analyst_epsilon=2.0),
            auditor=auditor,
            seed=1,
            telemetry=telemetry,
        )
        q = make_queries(8)
        alice = server.session("alice")
        alice.ask(q[0])
        alice.ask(q[0])
        alice.ask_workload([q[1], q[2], q[1]])
        alice.ask(q[3])
        with pytest.raises(BudgetExhausted):
            alice.ask(q[4])
        with pytest.raises(BudgetExhausted):
            alice.ask_workload([q[5]])
        alice.ask_workload([q[0]])
        trip(auditor, data, "mallory")
        mallory = server.session("mallory")
        with pytest.raises(CircuitBreakerTripped):
            mallory.ask(q[6])
        with pytest.raises(CircuitBreakerTripped):
            mallory.ask_workload([q[7]])
        assert step_counts(telemetry) == {
            "compliance": 4,
            "cache_lookup": 3,
            "budget_reserve": 6,
            "execute": 4,
            "cache_put": 4,
            "audit_append": 4,
            "cache_hit_fastpath": 1,
            "single_miss": 2,
            "admission": 0,
        }

    def test_sharded_session_with_a_rate_limit_reject(self):
        telemetry = Telemetry()
        server = ShardedQueryServer(
            make_data(),
            "laplace",
            seed=1,
            shards=2,
            rate_limit=RateLimit(rate=1.0, burst=2),
            clock=lambda: 0.0,
            telemetry=telemetry,
        )
        q = make_queries(3)
        session = server.session("alice")
        session.ask(q[0])
        session.ask_workload([q[1]])
        with pytest.raises(Rejected):
            session.ask(q[2])
        assert step_counts(telemetry) == {
            "compliance": 1,
            "cache_lookup": 1,
            "budget_reserve": 2,
            "execute": 2,
            "cache_put": 2,
            "audit_append": 2,
            "cache_hit_fastpath": 0,
            "single_miss": 1,
            "admission": 3,
        }
        rejects = {
            dict(point.labels)["reason"]: point.value
            for point in telemetry.snapshot().counters
            if point.name == ADMISSION_REJECTS
        }
        assert rejects == {"rate_limit": 1.0, "overload": 0.0, "other": 0.0}

    def test_failed_audit_pass_is_timed_in_audit_append(self):
        telemetry = Telemetry()
        data = make_data()
        auditor = ReconstructionAuditor(data)

        def broken(log, analyst):
            raise RuntimeError("LP solver failed")

        auditor.maybe_audit = broken
        server = QueryServer(data, "laplace", auditor=auditor, seed=1, telemetry=telemetry)
        q = make_queries(4)
        with pytest.raises(RuntimeError, match="LP solver failed"):
            server.ask("alice", q[0])
        with pytest.raises(RuntimeError, match="LP solver failed"):
            server.ask_workload("alice", q[1:])
        assert step_counts(telemetry) == {
            "compliance": 1,
            "cache_lookup": 1,
            "budget_reserve": 2,
            "execute": 2,
            "cache_put": 2,
            "audit_append": 2,
            "cache_hit_fastpath": 0,
            "single_miss": 0,
            "admission": 0,
        }


def pause_inside(registry, method):
    """Park every call of ``registry.<method>`` until ``release`` is set."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(registry, method)

    def paused(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=30.0)
        return original(*args, **kwargs)

    setattr(registry, method, paused)
    return entered, release


def trip(auditor, data, analyst):
    """Open ``analyst``'s breaker with a pass over an exact side transcript
    (more noiseless counts than bits), leaving every server untouched."""
    side = AuditLog()
    for query in make_queries(N + 16, seed=40):
        answer = float(query.mask @ data)
        side.append(analyst, query_fingerprint(query), query.mask, answer, False, 0.0)
    assert auditor.audit(side, analyst).flagged


class TestAdmissionInstrumentation:
    def test_rate_limit_rejects_counted_by_reason(self):
        telemetry = Telemetry()
        now = [0.0]
        server = ShardedQueryServer(
            make_data(),
            seed=3,
            shards=2,
            rate_limit=RateLimit(rate=1.0, burst=1),
            clock=lambda: now[0],
            telemetry=telemetry,
        )
        queries = make_queries(3)
        server.ask("alice", queries[0])
        with pytest.raises(Rejected):
            server.ask("alice", queries[1])
        shard = str(server.shard_of("alice"))
        snap = telemetry.snapshot()
        assert (
            snap.counter_value(ADMISSION_REJECTS, reason="rate_limit", shard=shard)
            == 1.0
        )
        # Families are pre-created at zero: overload is present untouched.
        assert (
            snap.counter_value(ADMISSION_REJECTS, reason="overload", shard=shard)
            == 0.0
        )

    def test_admission_stage_latency_recorded(self):
        telemetry = Telemetry()
        server = ShardedQueryServer(
            make_data(),
            seed=3,
            shards=2,
            rate_limit=RateLimit(rate=1000.0, burst=100),
            telemetry=telemetry,
        )
        server.ask("alice", make_queries(1)[0])
        shard = str(server.shard_of("alice"))
        point = telemetry.snapshot().histogram_point(
            STAGE_SECONDS, stage="admission", shard=shard, mechanism="laplace"
        )
        assert point.count == 1


class TestCacheInstrumentation:
    def test_stripe_counters_visible_in_snapshot(self):
        telemetry = Telemetry()
        server = ShardedQueryServer(make_data(), seed=3, shards=2, telemetry=telemetry)
        query = make_queries(1)[0]
        server.ask("alice", query)
        server.ask("alice", query)
        snap = telemetry.snapshot()
        total_hits = sum(
            point.value for point in snap.counters if point.name == CACHE_HITS
        )
        assert total_hits == 1.0

    def test_evictions_counted_and_aggregated(self):
        telemetry = Telemetry()
        server = ShardedQueryServer(
            make_data(),
            seed=3,
            shards=1,
            cache_entries=2,
            cache_stripes=1,
            telemetry=telemetry,
        )
        for query in make_queries(5):
            server.ask("alice", query)
        stats = server.stats()
        assert stats["evictions"] == 3
        assert stats["entries"] == 2
        assert stats["misses"] == 5
        snap = telemetry.snapshot()
        total_evictions = sum(
            point.value for point in snap.counters if point.name == CACHE_EVICTIONS
        )
        assert total_evictions == 3.0

    def test_stats_drills_down_per_shard_and_stripe(self):
        server = ShardedQueryServer(make_data(), shards=2, cache_stripes=4)
        server.ask("alice", make_queries(1)[0])
        stats = server.stats()
        assert len(stats["per_shard"]) == 2
        assert len(stats["per_shard"][0]["per_stripe"]) == 4
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.0


class TestAuditInstrumentation:
    @staticmethod
    def make_auditor(data):
        return ReconstructionAuditor(
            data,
            agreement_threshold=0.99,
            audit_every=N // 8,
            min_queries=N // 4,
            alpha=None,
            screen="l2",
        )

    def test_pool_reports_depth_and_pass_latency(self):
        telemetry = Telemetry()
        data = make_data()
        auditor = self.make_auditor(data)
        pool = AuditWorkerPool(auditor, workers=2, telemetry=telemetry)
        server = QueryServer(
            data, auditor=auditor, audit_dispatch=pool, telemetry=telemetry
        )
        rng = derive_rng(0, "audit-traffic")
        for _ in range(4):
            server.ask_workload("alice", Workload.random(N, N // 4, rng=rng))
        assert pool.flush(timeout=10.0)
        snap = telemetry.snapshot()
        depth = [p for p in snap.gauges if p.name == AUDIT_QUEUE_DEPTH]
        assert depth and depth[0].value == 0.0  # drained
        assert pool.depth_peak >= 1
        passes = [p for p in snap.histograms if p.name == AUDIT_PASS_SECONDS]
        assert sum(p.count for p in passes) >= 1
        server.close()

    @pytest.mark.parametrize(
        "warm_start_passes, labels",
        [(False, {"cold": 4, "warm": 0}), (True, {"cold": 1, "warm": 3})],
    )
    def test_pass_label_says_whether_it_started_warm(self, warm_start_passes, labels):
        telemetry = Telemetry()
        data = make_data()
        auditor = ReconstructionAuditor(
            data,
            agreement_threshold=0.99,
            audit_every=N // 8,
            min_queries=N // 4,
            alpha=None,
            screen="l2",
            warm_start_passes=warm_start_passes,
        )
        pool = AuditWorkerPool(auditor, workers=2, telemetry=telemetry)
        server = QueryServer(
            data, auditor=auditor, audit_dispatch=pool, telemetry=telemetry
        )
        rng = derive_rng(0, "audit-traffic")
        for _ in range(4):
            server.ask_workload("alice", Workload.random(N, N // 4, rng=rng))
            assert pool.flush(timeout=30.0)
        server.close()
        passes = {
            dict(point.labels)["warm"]: point.count
            for point in telemetry.snapshot().histograms
            if point.name == AUDIT_PASS_SECONDS
        }
        assert passes == labels
        assert [report.warm_started for report in auditor.reports] == (
            [False] + [warm_start_passes] * 3
        )

    def test_least_l1_lp_passes_are_labelled_cold(self):
        # A least-l1 LP reads no start point, so with screen="lp" every
        # pass is cold, warm_start_passes or not.
        telemetry = Telemetry()
        data = make_data()
        auditor = ReconstructionAuditor(
            data,
            agreement_threshold=0.99,
            audit_every=N // 8,
            min_queries=N // 4,
            alpha=None,
            screen="lp",
            warm_start_passes=True,
        )
        pool = AuditWorkerPool(auditor, workers=2, telemetry=telemetry)
        server = QueryServer(
            data, auditor=auditor, audit_dispatch=pool, telemetry=telemetry
        )
        rng = derive_rng(0, "audit-traffic")
        for _ in range(4):
            server.ask_workload("alice", Workload.random(N, N // 4, rng=rng))
            assert pool.flush(timeout=30.0)
        server.close()
        passes = {
            dict(point.labels)["warm"]: point.count
            for point in telemetry.snapshot().histograms
            if point.name == AUDIT_PASS_SECONDS
        }
        assert passes == {"cold": 4, "warm": 0}
        assert [report.warm_started for report in auditor.reports] == [False] * 4

    def test_pass_finishing_mid_bind_is_not_an_error(self):
        data = make_data()
        auditor = self.make_auditor(data)
        pool = AuditWorkerPool(auditor, workers=1)
        server = QueryServer(
            data, auditor=auditor, audit_dispatch=pool, telemetry=NULL_TELEMETRY
        )
        telemetry = Telemetry()
        entered, release = pause_inside(telemetry.registry, "gauge_fn")
        binder = threading.Thread(target=pool.bind_telemetry, args=(telemetry,))
        binder.start()
        rng = derive_rng(0, "audit-traffic")
        try:
            assert entered.wait(timeout=30.0)
            server.ask_workload("alice", Workload.random(N, N // 4, rng=rng))
            assert pool.flush(timeout=30.0)
        finally:
            release.set()
            binder.join(timeout=30.0)
        assert not binder.is_alive()
        assert len(auditor.reports) == 1
        assert pool.errors == ()
        # Bound now: the next pass is recorded.
        server.ask_workload("alice", Workload.random(N, N // 4, rng=rng))
        assert pool.flush(timeout=30.0)
        server.close()
        passes = telemetry.snapshot().histograms
        assert sum(p.count for p in passes if p.name == AUDIT_PASS_SECONDS) == 1
        assert pool.errors == ()

    def test_bind_telemetry_is_idempotent(self):
        telemetry = Telemetry()
        auditor = self.make_auditor(make_data())
        pool = AuditWorkerPool(auditor, workers=1)
        pool.bind_telemetry(telemetry)
        first = pool._pass_hist
        pool.bind_telemetry(telemetry)  # every shard server calls in
        assert pool._pass_hist is first
        pool.close()


class TestComplianceInstrumentation:
    def test_require_timed_and_denials_counted(self):
        telemetry = Telemetry()
        gate = ComplianceGate(telemetry=telemetry)
        with pytest.raises(ComplianceDenied):
            gate.require(None, subject="mechanism-spec")
        snap = telemetry.snapshot()
        hist = snap.histogram_point(COMPLIANCE_REQUIRE_SECONDS)
        assert hist.count == 1
        assert (
            snap.counter_value(
                COMPLIANCE_DENIALS,
                reason="unspecified-release",
                requirement="unspecified-release",
            )
            == 1.0
        )

    def test_require_mid_bind_still_refuses(self):
        gate = ComplianceGate()
        telemetry = Telemetry()
        entered, release = pause_inside(telemetry.registry, "histogram")
        binder = threading.Thread(target=gate.bind_telemetry, args=(telemetry,))
        binder.start()
        try:
            assert entered.wait(timeout=30.0)
            with pytest.raises(ComplianceDenied):
                gate.require(None, subject="mechanism-spec")
        finally:
            release.set()
            binder.join(timeout=30.0)
        assert not binder.is_alive()
        with pytest.raises(ComplianceDenied):
            gate.require(None, subject="mechanism-spec")
        hist = telemetry.snapshot().histogram_point(COMPLIANCE_REQUIRE_SECONDS)
        assert hist.count == 1

    def test_untelemetered_gate_has_no_overhead_path(self):
        gate = ComplianceGate()
        assert gate._telemetry is None
        with pytest.raises(ComplianceDenied):
            gate.require(None)


class TestAccountantInstrumentation:
    def test_budget_gauges_and_reconciliations(self):
        telemetry = Telemetry()
        accountant = ShardedAccountant(None, 4.0, shards=2, lease_chunk=0.5)
        server = ShardedQueryServer(
            make_data(),
            "laplace",
            {"epsilon_per_query": 0.5},
            accountant=accountant,
            seed=3,
            shards=2,
            telemetry=telemetry,
        )
        for query in make_queries(4):
            server.ask("alice", query)
        snap = telemetry.snapshot()
        spent = snap.gauge_value(BUDGET_EPSILON_SPENT)
        remaining = snap.gauge_value(BUDGET_EPSILON_REMAINING)
        assert spent == pytest.approx(accountant.global_spent())
        assert remaining == pytest.approx(4.0 - accountant.global_spent())
        assert accountant.reconciliations >= 1
        assert snap.counter_value(LEASE_RECONCILIATIONS) == float(
            accountant.reconciliations
        )


class TestBitIdentity:
    def test_answers_identical_with_telemetry_on_or_off(self):
        data = make_data()
        instrumented = ShardedQueryServer(
            data, "laplace", seed=3, shards=4, telemetry=Telemetry()
        )
        plain = ShardedQueryServer(data, "laplace", seed=3, shards=4, telemetry=NULL_TELEMETRY)
        queries = make_queries(10)
        for analyst in ("alice", "bob"):
            for query in queries:
                assert instrumented.ask(analyst, query) == plain.ask(analyst, query)
        workload = Workload.random(N, 20, rng=derive_rng(1, "wl"))
        np.testing.assert_array_equal(
            instrumented.ask_workload("carol", workload),
            plain.ask_workload("carol", workload),
        )

    def test_exhaustion_points_identical(self):
        data = make_data()
        outcomes = []
        for telemetry in (Telemetry(), NULL_TELEMETRY):
            server = ShardedQueryServer(
                data,
                "laplace",
                {"epsilon_per_query": 0.5},
                accountant=ShardedAccountant(3.0, 8.0, shards=4),
                seed=3,
                shards=4,
                telemetry=telemetry,
            )
            log = []
            for query in make_queries(30):
                try:
                    log.append(server.ask("alice", query))
                except BudgetExhausted as refusal:
                    log.append((str(refusal), refusal.scope))
            outcomes.append(log)
        assert outcomes[0] == outcomes[1]

    def test_env_var_enablement_is_bit_identical(self, monkeypatch):
        data = make_data()
        queries = make_queries(6)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        reference = QueryServer(data, seed=3)
        plain = [reference.ask("alice", q) for q in queries]
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        server = QueryServer(data, seed=3)
        assert server.telemetry.enabled
        assert [server.ask("alice", q) for q in queries] == plain

    def test_null_telemetry_snapshot_is_empty_after_traffic(self):
        server = QueryServer(make_data(), telemetry=NULL_TELEMETRY)
        server.ask("alice", make_queries(1)[0])
        assert to_prometheus(NULL_TELEMETRY.snapshot()) == ""
