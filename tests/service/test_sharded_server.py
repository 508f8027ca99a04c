"""ShardedQueryServer: bit-identity with the single-lock server, admission
control, and shared-state wiring.

The golden contract of the sharded front end is that sharding is *pure
mechanics*: for a fixed seed and analyst schedule, answers, audit verdicts,
and budget-exhaustion points are bit-identical to :class:`QueryServer`
with a single-ledger accountant.
"""

import threading
import time

import numpy as np
import pytest

from repro.privacy.accounting import BudgetExhausted
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    AnalystCacheView,
    BasicAccountant,
    CircuitBreakerTripped,
    QueryServer,
    RateLimit,
    ReconstructionAuditor,
    Rejected,
    ShardedAccountant,
    ShardedQueryServer,
    StripedAnswerCache,
)
from repro.utils.rng import derive_rng

N = 96
ANALYSTS = ["alice", "bob", "carol", "dave", "erin"]


def make_data(seed=11):
    return derive_rng(seed, "sharded-test").integers(0, 2, size=N)


def make_queries(count, seed=5):
    rng = derive_rng(seed, "sharded-queries")
    return [SubsetQuery(rng.random(N) < 0.5) for _ in range(count)]


class TestAnswerBitIdentity:
    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_single_asks_match_single_server(self, shards):
        data = make_data()
        single = QueryServer(data, "laplace", seed=3)
        sharded = ShardedQueryServer(data, "laplace", seed=3, shards=shards)
        queries = make_queries(12)
        for analyst in ANALYSTS:
            reference = single.session(analyst)
            session = sharded.session(analyst)
            for query in queries:
                assert session.ask(query) == reference.ask(query)

    def test_workloads_match_single_server(self):
        data = make_data()
        single = QueryServer(data, "gaussian", seed=7)
        sharded = ShardedQueryServer(data, "gaussian", seed=7, shards=8)
        workload = Workload.random(N, 30, rng=derive_rng(1, "wl"))
        for analyst in ANALYSTS:
            expected = single.session(analyst).ask_workload(workload)
            got = sharded.session(analyst).ask_workload(workload)
            np.testing.assert_array_equal(got, expected)

    def test_cache_replay_is_bit_identical_and_free(self):
        sharded = ShardedQueryServer(make_data(), "laplace", seed=3, shards=4)
        session = sharded.session("alice")
        workload = Workload.random(N, 20, rng=derive_rng(2, "wl"))
        first = session.ask_workload(workload)
        charged = session.queries_charged
        np.testing.assert_array_equal(session.ask_workload(workload), first)
        assert session.queries_charged == charged  # replay charged nothing

    def test_answers_independent_of_shard_count(self):
        data = make_data()
        queries = make_queries(8)
        by_shards = {}
        for shards in (1, 3, 16):
            server = ShardedQueryServer(data, "laplace", seed=9, shards=shards)
            by_shards[shards] = [server.session("alice").ask(q) for q in queries]
        assert by_shards[1] == by_shards[3] == by_shards[16]


class TestBudgetBitIdentity:
    def test_exhaustion_points_match_single_server(self):
        data = make_data()
        single = QueryServer(
            data,
            "laplace",
            {"epsilon_per_query": 0.5},
            accountant=BasicAccountant(3.0, 8.0),
            seed=3,
        )
        sharded = ShardedQueryServer(
            data,
            "laplace",
            {"epsilon_per_query": 0.5},
            accountant=ShardedAccountant(3.0, 8.0, shards=8),
            seed=3,
            shards=8,
        )
        queries = make_queries(30)
        for analyst in ANALYSTS:
            reference = single.session(analyst)
            session = sharded.session(analyst)
            for query in queries:
                expected = refused = None
                try:
                    expected = reference.ask(query)
                except BudgetExhausted as caught:
                    refused = (str(caught), caught.scope)
                if refused is None:
                    assert session.ask(query) == expected
                else:
                    with pytest.raises(BudgetExhausted) as got:
                        session.ask(query)
                    assert (str(got.value), got.value.scope) == refused
        assert sharded.accountant.global_spent() == single.accountant.global_spent()

    def test_workload_charges_are_all_or_nothing(self):
        sharded = ShardedQueryServer(
            make_data(),
            "laplace",
            {"epsilon_per_query": 0.5},
            accountant=ShardedAccountant(2.0, None, shards=4),
            shards=4,
        )
        session = sharded.session("alice")
        with pytest.raises(BudgetExhausted):
            session.ask_workload(Workload.random(N, 10, rng=0))
        assert session.queries_charged == 0
        assert sharded.served == 0


class TestAuditBitIdentity:
    @staticmethod
    def run_attack(server):
        session = server.session("attacker")
        rng = derive_rng(0, "audit-attack")
        served = 0
        for _ in range(40):
            workload = Workload.random(N, N // 8, rng=rng)
            try:
                session.ask_workload(workload)
                served += len(workload)
            except CircuitBreakerTripped as refusal:
                return served, refusal.report.agreement, refusal.report.unique_queries
        return served, None, None

    def test_trip_point_matches_single_server(self):
        data = make_data()
        verdicts = []
        for factory in (
            lambda auditor: QueryServer(data, "laplace", auditor=auditor, seed=3),
            lambda auditor: ShardedQueryServer(
                data, "laplace", auditor=auditor, seed=3, shards=8
            ),
        ):
            auditor = ReconstructionAuditor(
                data,
                agreement_threshold=0.8,
                audit_every=N // 8,
                min_queries=N // 4,
                alpha=None,
                screen="l2",
            )
            verdicts.append(self.run_attack(factory(auditor)))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][1] is not None  # the attack genuinely tripped


class TestAdmissionControl:
    def test_rate_limit_rejects_then_refills(self):
        now = [0.0]
        sharded = ShardedQueryServer(
            make_data(),
            "laplace",
            seed=3,
            shards=4,
            rate_limit=RateLimit(rate=5.0, burst=2),
            clock=lambda: now[0],
        )
        session = sharded.session("alice")
        query = make_queries(1)[0]
        session.ask(query)
        session.ask(query)
        with pytest.raises(Rejected) as caught:
            session.ask(query)
        assert caught.value.reason == "rate_limit"
        assert caught.value.analyst == "alice"
        assert caught.value.retry_after == pytest.approx(0.2)
        now[0] += 0.25
        session.ask(query)  # refilled
        assert sharded.rejections == {"rate_limit": 1, "overload": 0}

    def test_backwards_clock_step_never_drains_tokens(self):
        # Regression: with a wall clock stepping backwards (NTP slew), the
        # old bucket added a *negative* elapsed refill, draining tokens the
        # analyst never spent and inflating retry_after past one refill
        # interval.  The bucket now clamps elapsed at zero and defaults to
        # time.monotonic.
        import time as time_module

        from repro.service.sharded import _TokenBucket

        now = [100.0]
        bucket = _TokenBucket(RateLimit(rate=2.0, burst=2), clock=lambda: now[0])
        bucket.admit("alice")
        now[0] -= 50.0  # wall clock jumps back
        bucket.admit("alice")  # second burst token must still be there
        with pytest.raises(Rejected) as caught:
            bucket.admit("alice")
        # Worst case for an empty bucket is one full token at rate 2/s.
        assert 0.0 < caught.value.retry_after <= 0.5 + 1e-9
        now[0] += 0.5  # refills resume from the stepped-back stamp
        bucket.admit("alice")
        # And the default server clock is monotonic, immune to wall steps.
        sharded = ShardedQueryServer(
            make_data(), "laplace", seed=3, rate_limit=RateLimit(rate=5.0, burst=2)
        )
        assert sharded._clock is time_module.monotonic

    def test_admitted_invalid_query_still_consumes_a_token(self):
        # Admission runs before validation (pre-refactor ordering): a
        # malformed query from an admitted request burned its token.
        now = [0.0]
        sharded = ShardedQueryServer(
            make_data(),
            "laplace",
            seed=3,
            shards=2,
            rate_limit=RateLimit(rate=1.0, burst=1),
            clock=lambda: now[0],
        )
        session = sharded.session("alice")
        with pytest.raises(ValueError):
            session.ask(SubsetQuery(np.ones(N + 1, dtype=bool)))
        with pytest.raises(Rejected):  # the bad ask consumed the only token
            session.ask(make_queries(1)[0])

    def test_rate_limits_are_per_analyst(self):
        now = [0.0]
        sharded = ShardedQueryServer(
            make_data(),
            "laplace",
            seed=3,
            shards=4,
            rate_limit=RateLimit(rate=1.0, burst=1),
            clock=lambda: now[0],
        )
        query = make_queries(1)[0]
        sharded.session("alice").ask(query)
        sharded.session("bob").ask(query)  # bob's bucket is untouched
        with pytest.raises(Rejected):
            sharded.session("alice").ask(query)

    def test_rejection_has_no_privacy_or_audit_footprint(self):
        now = [0.0]
        sharded = ShardedQueryServer(
            make_data(),
            "laplace",
            seed=3,
            shards=4,
            rate_limit=RateLimit(rate=1.0, burst=1),
            clock=lambda: now[0],
        )
        session = sharded.session("alice")
        queries = make_queries(2)
        session.ask(queries[0])
        served, charged = sharded.served, session.queries_charged
        with pytest.raises(Rejected):
            session.ask(queries[1])
        assert sharded.served == served
        assert session.queries_charged == charged

    def test_overload_gate_rejects_at_capacity(self):
        sharded = ShardedQueryServer(
            make_data(), "laplace", seed=3, shards=1, max_inflight_per_shard=1
        )
        query = make_queries(1)[0]
        gate = sharded._gates[0]
        with gate.slot("occupant"):
            with pytest.raises(Rejected) as caught:
                sharded.session("alice").ask(query)
        assert caught.value.reason == "overload"
        sharded.session("alice").ask(query)  # slot released
        assert sharded.rejections["overload"] == 1

    def test_rejections_can_be_read_while_sessions_register(self):
        # Regression: rejections summed the bucket dict outside its lock,
        # so a session registering its bucket meanwhile made the reader
        # raise "dictionary changed size during iteration".
        sharded = ShardedQueryServer(
            make_data(), "laplace", seed=3, shards=4, rate_limit=RateLimit(rate=1.0, burst=1)
        )

        def register():
            for index in range(5000):
                sharded.session(f"analyst-{index}")

        opener = threading.Thread(target=register)
        errors = []
        deadline = time.monotonic() + 60.0
        opener.start()
        while opener.is_alive() and time.monotonic() < deadline:
            try:
                assert sharded.rejections == {"rate_limit": 0, "overload": 0}
            except RuntimeError as error:
                errors.append(error)
        opener.join(timeout=60.0)
        assert not opener.is_alive()
        assert len(sharded._buckets) == 5000
        assert errors == []

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            RateLimit(rate=0.0, burst=1)
        with pytest.raises(ValueError, match="burst"):
            RateLimit(rate=1.0, burst=0)
        with pytest.raises(ValueError, match="shards"):
            ShardedQueryServer(make_data(), shards=0)


class TestSharedStateWiring:
    def test_analysts_use_shard_local_striped_caches(self):
        sharded = ShardedQueryServer(make_data(), "laplace", seed=3, shards=4)
        session = sharded.session("alice")
        assert isinstance(session.cache, AnalystCacheView)
        shard_cache = sharded.shard_cache(sharded.shard_of("alice"))
        assert isinstance(shard_cache, StripedAnswerCache)
        session.ask_workload(Workload.random(N, 10, rng=0))
        assert len(shard_cache) == 10
        assert session.cache.hit_rate == 0.0
        session.ask_workload(Workload.random(N, 10, rng=0))
        assert session.cache.hit_rate == 0.5

    def test_default_accountant_is_sharded_and_shared(self):
        sharded = ShardedQueryServer(make_data(), "laplace", shards=4)
        assert isinstance(sharded.accountant, ShardedAccountant)
        assert all(
            sharded.shard_server(i).accountant is sharded.accountant for i in range(4)
        )

    def test_synthetic_fallback_release_is_shared_across_shards(self):
        data = make_data()
        accountant = ShardedAccountant(1.0, None, shards=4)
        sharded = ShardedQueryServer(
            data,
            "laplace",
            {"epsilon_per_query": 0.6},
            accountant=accountant,
            seed=3,
            shards=4,
            synthetic_fallback=True,
        )
        query = make_queries(1)[0]
        # Exhaust two analysts on different shards; both fall back.
        answers = {}
        for analyst in ("alice", "bob"):
            session = sharded.session(analyst)
            session.ask(query)
            answers[analyst] = session.ask(make_queries(2)[1])
        release = sharded.fallback_release
        assert release is not None
        # One release, one charge, shared by every shard server.
        assert all(
            sharded.shard_server(i).fallback_release is release for i in range(4)
        )
        assert accountant.analyst_queries("synthetic-release") == 1

    def test_audit_logs_partition_by_analyst(self):
        sharded = ShardedQueryServer(make_data(), "laplace", seed=3, shards=4)
        query = make_queries(1)[0]
        for analyst in ANALYSTS:
            sharded.session(analyst).ask(query)
        assert sharded.served == len(ANALYSTS)
        for analyst in ANALYSTS:
            log = sharded.audit_log_for(analyst)
            assert len(log.records(analyst)) == 1
        assert sorted(sharded.analysts) == sorted(ANALYSTS)

    def test_sessionless_ask_routes_through_admission(self):
        now = [0.0]
        sharded = ShardedQueryServer(
            make_data(),
            "laplace",
            seed=3,
            shards=4,
            rate_limit=RateLimit(rate=1.0, burst=1),
            clock=lambda: now[0],
        )
        query = make_queries(1)[0]
        sharded.ask("alice", query)
        with pytest.raises(Rejected):
            sharded.ask("alice", query)

    def test_mechanism_spec_matches_single_server(self):
        data = make_data()
        single = QueryServer(data, "laplace", seed=3)
        sharded = ShardedQueryServer(data, "laplace", seed=3, shards=4)
        single.session("alice")
        sharded.session("alice")
        spec = sharded.mechanism_spec("alice")
        reference = single.mechanism_spec("alice")
        assert spec.name == reference.name
        assert spec.spend == reference.spend
        assert spec.sensitivity == reference.sensitivity
