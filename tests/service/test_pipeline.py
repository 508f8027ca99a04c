"""The serve pipeline: step order, audit dispatch, the budget lease, and
the bit-identity contract across serve paths and front ends.

The refactor's promise is that the pipeline is pure mechanics: for a fixed
seed, served answers, budget-exhaustion points, and audit verdicts are
bit-identical whatever the audit dispatch (inline/background, after a
flush), whether the fused single-ask path or the workload path served
the query, and whether one server or a sharded front end did.
"""

import importlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.privacy.accounting import BudgetLease
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    AuditWorkerPool,
    BasicAccountant,
    QueryServer,
    RateLimit,
    ReconstructionAuditor,
    Rejected,
    ServePipeline,
    ShardedQueryServer,
)
from repro.utils.rng import derive_rng

N = 64


def make_data(seed=21):
    return derive_rng(seed, "pipeline-test").integers(0, 2, size=N)


def make_queries(count, seed=4, density=0.5):
    rng = derive_rng(seed, "pipeline-queries")
    return [SubsetQuery(rng.random(N) < density) for _ in range(count)]


class TestStageList:
    def test_fixed_sequence(self):
        server = QueryServer(make_data(), "laplace", seed=1)
        assert repr(server.pipeline) == (
            "ServePipeline(compliance -> cache_lookup -> budget_reserve"
            " -> execute -> cache_put -> audit_append)"
        )

    def test_admission_leads_when_composed(self):
        # A session's admission runs before every other step: once the
        # analyst's only token is spent, requests are refused before the
        # compliance check or query validation runs, with no footprint.
        data = make_data()
        auditor = ReconstructionAuditor(data)
        sharded = ShardedQueryServer(
            data,
            "laplace",
            auditor=auditor,
            seed=1,
            shards=2,
            rate_limit=RateLimit(rate=1.0, burst=1),
            clock=lambda: 0.0,
        )
        session = sharded.session("alice")
        session.ask(make_queries(1)[0])

        def compliance(analyst):
            raise AssertionError("compliance ran before admission")

        auditor.check = compliance
        with pytest.raises(Rejected):
            session.ask(make_queries(1, seed=5)[0])
        with pytest.raises(Rejected):
            session.ask_workload([SubsetQuery(np.ones(N + 1, dtype=bool))])
        assert len(sharded.audit_log_for("alice")) == 1

    def test_sessions_share_the_shard_pipeline(self):
        sharded = ShardedQueryServer(
            make_data(), "laplace", seed=1, shards=1, max_inflight_per_shard=4
        )
        shard = sharded.shard_server(0).pipeline
        assert sharded.session("alice")._pipeline is shard
        assert sharded.session("bob")._pipeline is shard


class TestFusedVersusStagedSingle:
    def test_fused_hot_path_matches_staged_reference(self):
        # Two servers, same seed: one driven through session.ask (the fused
        # single-ask path), one through one-row session.ask_workload
        # calls (the workload driver, every step in sequence).  Answers and
        # audit records must be bit-identical, replays included.
        data = make_data()
        fused = QueryServer(data, "laplace", seed=5)
        staged = QueryServer(data, "laplace", seed=5)
        queries = make_queries(10)
        single = fused.session("alice")
        batched = staged.session("alice")
        for query in queries + queries:  # second pass replays from cache
            expected = single.ask(query)
            (answer,) = batched.ask_workload([query])
            assert answer == expected
        fused_log = fused.audit_log.records("alice")
        staged_log = staged.audit_log.records("alice")
        assert len(fused_log) == len(staged_log) == 20
        assert sum(record.cached for record in fused_log) == 10
        for a, b in zip(fused_log, staged_log):
            assert (a.fingerprint, a.answer, a.cached, a.epsilon, a.source) == (
                b.fingerprint,
                b.answer,
                b.cached,
                b.epsilon,
                b.source,
            )
        assert single.epsilon_spent == batched.epsilon_spent
        assert single.queries_charged == batched.queries_charged == 10


class TestExecutionBackendsRemoved:
    # Thread and fork-pool execution measured slower than serving on the
    # calling thread, and the Request/Outcome boundary had no front end to
    # serve; both were deleted and must stay deleted.
    def test_service_exports_are_gone(self):
        service = importlib.import_module("repro.service")
        for name in (
            "Request",
            "Outcome",
            "ExecutionBackend",
            "InlineExecutionBackend",
            "ThreadExecutionBackend",
            "ProcessExecutionBackend",
            "EXECUTION_BACKENDS",
            "resolve_execution_backend",
        ):
            assert not hasattr(service, name), name
            assert name not in service.__all__, name

    @pytest.mark.parametrize("server_class", [QueryServer, ShardedQueryServer])
    def test_servers_refuse_an_execution_argument(self, server_class):
        with pytest.raises(TypeError, match="execution"):
            server_class(make_data(), "laplace", execution="process")

    def test_shared_fork_executor_is_gone(self):
        parallel = importlib.import_module("repro.utils.parallel")
        assert not hasattr(parallel, "shared_fork_executor")


class TestStagedPipelineRemoved:
    # One straight-line driver per request shape replaced the stage
    # classes, the per-request Exchange, the per-session pipeline clones
    # and the telemetry stage wrappers; they must stay deleted.
    def test_stage_classes_are_gone(self):
        pipeline = importlib.import_module("repro.service.pipeline")
        for name in (
            "Exchange",
            "ComplianceStage",
            "CacheLookupStage",
            "BudgetReserveStage",
            "ExecuteStage",
            "CachePutStage",
            "AuditAppendStage",
        ):
            assert not hasattr(pipeline, name), name
        assert pipeline.__all__ == ["AdmissionControl", "ServePipeline"]

    def test_pipeline_views_are_gone(self):
        for name in ("with_admission", "stages", "execute_stage", "audit_stage"):
            assert not hasattr(ServePipeline, name), name

    def test_telemetry_stage_wrappers_are_gone(self):
        for module in ("repro.telemetry", "repro.telemetry.instrument"):
            telemetry = importlib.import_module(module)
            for name in ("TelemetryStage", "TelemetryAdmission"):
                assert not hasattr(telemetry, name), (module, name)
                assert name not in telemetry.__all__, (module, name)

    def test_audit_worker_count_ignores_the_environment(self, monkeypatch):
        audit_worker = importlib.import_module("repro.service.audit_worker")
        assert not hasattr(audit_worker, "AUDIT_WORKERS_ENV")
        assert not hasattr(audit_worker, "default_audit_workers")
        monkeypatch.setenv("REPRO_AUDIT_WORKERS", "5")
        pool = AuditWorkerPool(ReconstructionAuditor(make_data()))
        assert pool.workers == audit_worker.DEFAULT_AUDIT_WORKERS == 2
        pool.close()


@st.composite
def interleavings(draw):
    """A schedule of (analyst, kind, index) ops over a small query pool."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["alice", "bob", "carol"]),
                st.sampled_from(["ask", "workload"]),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return ops


class TestInterleavingBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(schedule=interleavings())
    def test_sharded_matches_single_on_any_schedule(self, schedule):
        data = make_data()
        queries = make_queries(8)
        workloads = [
            Workload.coerce(queries[i : i + 3] or queries[:1]) for i in range(8)
        ]

        def run(server):
            out = []
            for analyst, kind, index in schedule:
                session = server.session(analyst)
                if kind == "ask":
                    out.append(session.ask(queries[index]))
                else:
                    out.append(tuple(session.ask_workload(workloads[index])))
            return out

        sharded = ShardedQueryServer(data, "laplace", seed=13, shards=4)
        assert run(sharded) == run(QueryServer(data, "laplace", seed=13))


class TestBudgetLeaseContract:
    def test_lease_rollback_refunds(self):
        accountant = BasicAccountant(per_analyst_epsilon=2.0)
        lease = BudgetLease.acquire(accountant, "alice", 2, 0.5)
        assert accountant.analyst_epsilon("alice") == pytest.approx(1.0)
        assert not lease.settled
        lease.rollback()
        assert lease.settled and not lease.committed
        assert accountant.analyst_epsilon("alice") == pytest.approx(0.0)
        lease.rollback()  # idempotent
        with pytest.raises(RuntimeError):
            lease.commit()

    def test_commit_is_final(self):
        accountant = BasicAccountant()
        lease = accountant.lease("alice", 1, 0.25)
        lease.commit()
        assert lease.committed
        with pytest.raises(RuntimeError):
            lease.rollback()

    def test_failed_execute_rolls_back_the_charge(self):
        # Pre-refactor, a mechanism failure after accountant.charge burned
        # the budget for an answer never released.  The lease contract
        # refunds it.
        class ExplodingAnswerer:
            epsilon_per_query = 0.5

            def __init__(self):
                self.calls = 0

            def answer(self, query):
                self.calls += 1
                raise RuntimeError("mechanism hardware on fire")

        server = QueryServer(
            make_data(),
            lambda data, rng, **p: ExplodingAnswerer(),
            accountant=BasicAccountant(per_analyst_epsilon=5.0),
            seed=1,
        )
        with pytest.raises(RuntimeError, match="on fire"):
            server.ask("alice", make_queries(1)[0])
        assert server.accountant.analyst_epsilon("alice") == pytest.approx(0.0)
        assert server.accountant.analyst_queries("alice") == 0
        assert len(server.audit_log) == 0  # nothing released, nothing logged

    def test_failed_audit_pass_keeps_the_charge(self):
        # The audit pass runs after the answers are logged and cached, so
        # they are released whatever the pass does.  A pass that raises (an
        # LP solver failure, say) must propagate without refunding them:
        # the ledger always equals the epsilon the audit log says was spent.
        data = make_data()
        auditor = ReconstructionAuditor(data)

        def broken(log, analyst):
            raise RuntimeError("LP solver failed: status 4")

        auditor.maybe_audit = broken
        server = QueryServer(data, "laplace", auditor=auditor, seed=1)

        def assert_ledger_matches_log():
            records = [
                record
                for record in server.audit_log.records("alice")
                if record.source == "mechanism"
            ]
            assert server.accountant.analyst_epsilon("alice") == pytest.approx(
                sum(record.epsilon for record in records)
            )
            assert server.accountant.analyst_queries("alice") == sum(
                not record.cached for record in records
            )

        query = make_queries(1)[0]
        with pytest.raises(RuntimeError, match="LP solver failed"):
            server.ask("alice", query)
        assert_ledger_matches_log()
        assert server.accountant.analyst_epsilon("alice") == pytest.approx(0.5)
        # The replay is the logged answer, free of charge.
        logged = server.audit_log.records("alice")[0].answer
        assert server.ask("alice", query) == logged
        assert_ledger_matches_log()
        with pytest.raises(RuntimeError, match="LP solver failed"):
            server.ask_workload("alice", make_queries(5, seed=8))
        assert_ledger_matches_log()
        assert server.accountant.analyst_epsilon("alice") == pytest.approx(3.0)
        assert server.accountant.analyst_queries("alice") == 6


def _auditable_server(data, dispatch, seed=17):
    auditor = ReconstructionAuditor(
        data,
        agreement_threshold=0.8,
        audit_every=16,
        min_queries=16,
        screen="l2",
    )
    return QueryServer(
        data, "exact", auditor=auditor, seed=seed, audit_dispatch=dispatch
    )


class TestAuditDispatch:
    def test_background_flush_matches_inline_verdicts(self):
        data = make_data()
        inline = _auditable_server(data, "inline")
        background = _auditable_server(data, "background")
        queries = make_queries(48, density=0.4)
        refusals_inline = refusals_background = 0
        from repro.service import CircuitBreakerTripped

        for query in queries:
            try:
                inline.ask("alice", query)
            except CircuitBreakerTripped:
                refusals_inline += 1
        for query in queries:
            try:
                background.ask("alice", query)
                background.audit_dispatch.flush()
            except CircuitBreakerTripped:
                refusals_background += 1
        background.close()
        assert refusals_background == refusals_inline
        inline_reports = inline.auditor.reports
        background_reports = background.auditor.reports
        assert len(background_reports) == len(inline_reports) > 0
        for a, b in zip(inline_reports, background_reports):
            assert (a.analyst, a.unique_queries, a.agreement, a.flagged, a.mode) == (
                b.analyst,
                b.unique_queries,
                b.agreement,
                b.flagged,
                b.mode,
            )

    def test_background_breaker_trips_off_the_hot_path(self):
        data = make_data()
        server = _auditable_server(data, "background")
        session = server.session("alice")
        # 96 exact answers over 64 unknowns: overdetermined, so the audit
        # pass reconstructs essentially perfectly and must trip.
        for query in make_queries(96, density=0.4):
            session.ask(query)
        assert server.audit_dispatch.flush(timeout=30.0)
        assert server.auditor.is_tripped("alice")
        from repro.service import CircuitBreakerTripped

        with pytest.raises(CircuitBreakerTripped):
            session.ask(make_queries(1, seed=99)[0])
        server.close()

    def test_pending_signals_deduplicate(self):
        data = make_data()
        auditor = ReconstructionAuditor(
            data, audit_every=1000, min_queries=1000
        )
        pool = AuditWorkerPool(auditor, workers=2)
        gate = threading.Event()
        original = auditor.maybe_audit
        calls = []

        def slow_maybe_audit(log, analyst):
            gate.wait(5.0)
            calls.append(analyst)
            return original(log, analyst)

        auditor.maybe_audit = slow_maybe_audit
        log = QueryServer(data, "exact").audit_log
        for _ in range(10):
            pool.after_append(log, "alice")
        gate.set()
        assert pool.flush(timeout=10.0)
        # First signal runs; the 9 landing while it was queued collapse
        # into at most one follow-up pass.
        assert 1 <= len(calls) <= 2
        pool.close()

    def test_closed_pool_falls_back_inline(self):
        data = make_data()
        server = _auditable_server(data, "background")
        pool = server.audit_dispatch
        pool.close()
        session = server.session("alice")
        for query in make_queries(20, density=0.4):
            session.ask(query)
        # Verdicts still arrive, just computed inline after close.
        assert len(server.auditor.reports) > 0

    def test_worker_errors_are_kept_not_fatal(self):
        data = make_data()
        auditor = ReconstructionAuditor(data)

        def broken(log, analyst):
            raise ValueError("solver exploded")

        auditor.maybe_audit = broken
        pool = AuditWorkerPool(auditor, workers=1)
        with pytest.warns(RuntimeWarning, match="background audit pass"):
            pool.after_append(QueryServer(data, "exact").audit_log, "alice")
            assert pool.flush(timeout=10.0)
        assert len(pool.errors) == 1
        pool.close()

    def test_resolver_rejects_unknown(self):
        data = make_data()
        with pytest.raises(ValueError):
            QueryServer(
                data,
                "exact",
                auditor=ReconstructionAuditor(data),
                audit_dispatch="telepathy",
            )


ANALYSTS = ("alice", "bob", "carol")

#: Serves ``queries`` for every analyst from a 4-shard server in a fresh
#: interpreter; prints ``{analyst: [answer.hex(), ...]}`` as JSON.
SHARDED_CHILD = """
import json, sys
import numpy as np
from repro.queries.query import SubsetQuery
from repro.service import ShardedQueryServer

spec = json.load(sys.stdin)
server = ShardedQueryServer(np.array(spec["data"]), "laplace", seed=19, shards=4)
queries = [SubsetQuery(np.array(mask)) for mask in spec["queries"]]
json.dump(
    {a: [float(server.session(a).ask(q)).hex() for q in queries] for a in spec["analysts"]},
    sys.stdout,
)
"""


def sharded_answers_inline(data, queries):
    sharded = ShardedQueryServer(data, "laplace", seed=19, shards=4)
    return {
        analyst: [float(sharded.session(analyst).ask(q)).hex() for q in queries]
        for analyst in ANALYSTS
    }


def sharded_answers_thread(data, queries):
    sharded = ShardedQueryServer(data, "laplace", seed=19, shards=4)
    start = threading.Barrier(len(ANALYSTS))

    def drive(analyst):
        session = sharded.session(analyst)
        start.wait()
        return [float(session.ask(q)).hex() for q in queries]

    with ThreadPoolExecutor(max_workers=len(ANALYSTS)) as pool:
        return dict(zip(ANALYSTS, pool.map(drive, ANALYSTS)))


def sharded_answers_process(data, queries):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    spec = {
        "data": data.tolist(),
        "queries": [q.mask.tolist() for q in queries],
        "analysts": list(ANALYSTS),
    }
    child = subprocess.run(
        [sys.executable, "-c", SHARDED_CHILD],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(child.stdout)


SHARDED_DRIVERS = {
    "inline": sharded_answers_inline,
    "thread": sharded_answers_thread,
    "process": sharded_answers_process,
}


class TestShardedBackendBitIdentity:
    """A sharded front end answers exactly as one server does, wherever its
    asks run: the test thread, one thread per analyst at once, or a fresh
    interpreter with a different string-hash seed."""

    @pytest.mark.parametrize("driver", ["inline", "thread", "process"])
    def test_sharded_matches_single_server(self, driver):
        data = make_data()
        queries = make_queries(6)
        single = QueryServer(data, "laplace", seed=19)
        expected = {}
        for analyst in ANALYSTS:
            reference = single.session(analyst)
            expected[analyst] = [float(reference.ask(q)).hex() for q in queries]
        assert SHARDED_DRIVERS[driver](data, queries) == expected
