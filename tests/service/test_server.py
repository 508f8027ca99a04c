"""QueryServer integration: routing, caching, budgets, breaker semantics."""

import numpy as np
import pytest

from repro.queries.mechanism import LaplaceAnswerer
from repro.queries.workload import Workload
from repro.service import (
    BasicAccountant,
    BudgetExhausted,
    CircuitBreakerTripped,
    QueryServer,
    ReconstructionAuditor,
    make_answerer,
    per_query_epsilon,
)
from repro.utils.rng import derive_rng


def _data(n=32, seed=11):
    return derive_rng(seed, "data").integers(0, 2, size=n)


def _server(n=32, **kwargs):
    kwargs.setdefault("mechanism", "laplace")
    kwargs.setdefault("mechanism_params", {"epsilon_per_query": 0.5})
    return QueryServer(_data(n), **kwargs)


class TestMechanismFactory:
    @pytest.mark.parametrize(
        "spec", ["exact", "laplace", "gaussian", "subsample", "bounded", "rounding"]
    )
    def test_every_spec_builds_and_answers(self, spec):
        server = QueryServer(_data(), mechanism=spec, seed=3)
        workload = Workload.random(32, 5, rng=0)
        answers = server.session("a").ask_workload(workload)
        assert answers.shape == (5,)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            make_answerer("bogus", _data())

    def test_callable_mechanism(self):
        server = QueryServer(
            _data(), mechanism=lambda data, rng, **p: LaplaceAnswerer(data, 0.3, rng=rng)
        )
        assert server._state("a").epsilon_per_query == pytest.approx(0.3)

    def test_per_query_epsilon_only_for_dp_mechanisms(self):
        data = _data()
        assert per_query_epsilon(make_answerer("laplace", data)) == 0.5
        assert per_query_epsilon(make_answerer("gaussian", data)) == 0.5
        assert per_query_epsilon(make_answerer("exact", data)) == 0.0
        assert per_query_epsilon(make_answerer("rounding", data)) == 0.0


class TestCaching:
    def test_repeat_is_bit_identical_and_free(self):
        server = _server()
        session = server.session("a")
        workload = Workload.random(32, 10, rng=1)
        first = session.ask_workload(workload)
        assert session.queries_charged == 10
        again = session.ask_workload(workload)
        assert np.array_equal(first, again)  # bitwise, no tolerance
        assert session.queries_charged == 10  # no recharge
        assert session.epsilon_spent == pytest.approx(5.0)

    def test_scalar_and_workload_paths_share_cache(self):
        server = _server()
        session = server.session("a")
        workload = Workload.random(32, 6, rng=2)
        batched = session.ask_workload(workload)
        for index, query in enumerate(workload):
            assert session.ask(query) == batched[index]
        assert session.queries_charged == 6

    def test_within_workload_duplicates_charged_once(self):
        server = _server()
        session = server.session("a")
        masks = Workload.random(32, 4, rng=3).masks
        doubled = Workload(np.vstack([masks, masks]))
        answers = session.ask_workload(doubled)
        assert np.array_equal(answers[:4], answers[4:])
        assert session.queries_charged == 4

    def test_analysts_have_independent_noise_streams(self):
        server = _server()
        workload = Workload.random(32, 8, rng=4)
        a = server.session("a").ask_workload(workload)
        b = server.session("b").ask_workload(workload)
        assert not np.array_equal(a, b)

    def test_fixed_seed_reproducible_across_servers(self):
        workload = Workload.random(32, 8, rng=5)
        first = _server(seed=9).session("a").ask_workload(workload)
        second = _server(seed=9).session("a").ask_workload(workload)
        assert np.array_equal(first, second)


class TestBudgets:
    def test_mid_workload_exhaustion_is_all_or_nothing(self):
        server = _server(accountant=BasicAccountant(per_analyst_epsilon=3.0))
        session = server.session("a")
        session.ask_workload(Workload.random(32, 4, rng=6))  # spends 2.0
        log_before = len(server.audit_log)
        oversized = Workload.random(32, 5, rng=7)  # needs 2.5 > 1.0 left
        with pytest.raises(BudgetExhausted) as excinfo:
            session.ask_workload(oversized)
        assert excinfo.value.scope == "analyst"
        # Nothing was answered, charged, cached, or logged.
        assert session.queries_charged == 4
        assert session.epsilon_spent == pytest.approx(2.0)
        assert len(server.audit_log) == log_before
        assert session.cache.lookup_many([]) == []
        # A fitting workload still succeeds afterwards.
        session.ask_workload(Workload.random(32, 2, rng=8))
        assert session.queries_charged == 6

    def test_cached_rows_do_not_count_against_budget(self):
        server = _server(accountant=BasicAccountant(per_analyst_epsilon=2.0))
        session = server.session("a")
        workload = Workload.random(32, 4, rng=9)
        session.ask_workload(workload)  # exactly exhausts the budget
        # Replaying the same workload needs no fresh budget.
        session.ask_workload(workload)
        with pytest.raises(BudgetExhausted):
            session.ask(Workload.random(32, 1, rng=10)[0])

    def test_scalar_refusal(self):
        server = _server(accountant=BasicAccountant(per_analyst_epsilon=0.5))
        session = server.session("a")
        query = Workload.random(32, 2, rng=11)[0]
        session.ask(query)
        with pytest.raises(BudgetExhausted):
            session.ask(Workload.random(32, 2, rng=11)[1])
        # The refused query was not logged.
        assert len(server.audit_log.records("a")) == 1

    def test_nan_epsilon_serves_nothing(self):
        # A NaN per-query epsilon would compose to a NaN ledger that no cap
        # ever refuses; the mechanism refuses it before anything is served.
        server = _server(
            mechanism_params={"epsilon_per_query": float("nan")},
            accountant=BasicAccountant(per_analyst_epsilon=1.0),
        )
        with pytest.raises(ValueError, match="epsilon_per_query"):
            server.session("a").ask_workload(Workload.random(32, 50, rng=12))
        assert server.accountant.analyst_queries("a") == 0
        assert len(server.audit_log) == 0

    def test_exact_mechanism_bounded_by_query_count(self):
        server = QueryServer(
            _data(),
            mechanism="exact",
            accountant=BasicAccountant(max_queries_per_analyst=5),
        )
        session = server.session("a")
        session.ask_workload(Workload.random(32, 5, rng=13))
        with pytest.raises(BudgetExhausted) as excinfo:
            session.ask_workload(Workload.random(32, 1, rng=14))
        assert excinfo.value.scope == "queries"


class TestAuditorIntegration:
    def test_breaker_blocks_next_call_and_refusal_is_typed(self):
        n = 64
        data = _data(n)
        auditor = ReconstructionAuditor(
            data, agreement_threshold=0.9, audit_every=16, min_queries=32, alpha=0.0
        )
        server = QueryServer(data, mechanism="exact", auditor=auditor, seed=0)
        session = server.session("attacker")
        tripped = None
        for index in range(20):
            workload = Workload.random(n, 16, rng=derive_rng(0, "atk", index))
            try:
                session.ask_workload(workload)
            except CircuitBreakerTripped as refusal:
                tripped = refusal
                break
        assert tripped is not None
        assert tripped.analyst == "attacker"
        assert tripped.report.agreement >= 0.9
        with pytest.raises(CircuitBreakerTripped):
            session.ask(Workload.random(n, 1, rng=99)[0])

    def test_benign_sessions_unaffected_by_tripped_peer(self):
        n = 64
        data = _data(n)
        auditor = ReconstructionAuditor(
            data, agreement_threshold=0.9, audit_every=16, min_queries=32, alpha=0.0
        )
        server = QueryServer(data, mechanism="exact", auditor=auditor, seed=0)
        attacker = server.session("attacker")
        with pytest.raises(CircuitBreakerTripped):
            for index in range(20):
                attacker.ask_workload(
                    Workload.random(n, 16, rng=derive_rng(1, "atk", index))
                )
        benign = server.session("benign")
        answers = benign.ask_workload(Workload.random(n, 8, rng=2))
        assert answers.shape == (8,)
        assert not auditor.is_tripped("benign")


class TestServerBasics:
    def test_wrong_n_rejected(self):
        server = _server(n=16)
        with pytest.raises(ValueError):
            server.session("a").ask_workload(Workload.random(17, 2, rng=0))
        with pytest.raises(ValueError):
            server.session("a").ask(Workload.random(17, 2, rng=0)[0])

    def test_non_binary_data_rejected(self):
        with pytest.raises(ValueError):
            QueryServer(np.array([0, 1, 2]))

    def test_sessions_are_reenterable(self):
        server = _server()
        first = server.session("a")
        second = server.session("a")
        query = Workload.random(32, 1, rng=15)[0]
        assert first.ask(query) == second.ask(query)
        assert server.analysts == ("a",)

    def test_audit_log_records_everything(self):
        server = _server()
        session = server.session("a")
        workload = Workload.random(32, 3, rng=16)
        session.ask_workload(workload)
        session.ask_workload(workload)
        records = server.audit_log.records("a")
        assert len(records) == 6
        assert [record.cached for record in records] == [False] * 3 + [True] * 3
        assert all(
            record.epsilon == (0.0 if record.cached else 0.5) for record in records
        )

    def test_repr_smoke(self):
        server = _server()
        server.session("a").ask(Workload.random(32, 1, rng=17)[0])
        assert "QueryServer" in repr(server)
