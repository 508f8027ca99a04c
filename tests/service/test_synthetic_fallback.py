"""The budget-exhaustion fallback: answers from a pre-paid synthetic release.

Contract: once an analyst's ledger refuses a charge, the server answers
from one MWEM-synthesized binary dataset instead of refusing outright.
The release is synthesized exactly once (charged to its own account), its
spec lands in the audit log's release register, every fallback answer is
logged with ``source="synthetic"`` at zero marginal epsilon, and the
answers are bit-deterministic functions of the server seed.
"""

import numpy as np
import pytest

from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    BasicAccountant,
    BudgetExhausted,
    QueryServer,
    SyntheticFallback,
)
from repro.utils.rng import derive_rng


def _query(indices: list[int], n: int) -> SubsetQuery:
    return SubsetQuery(np.isin(np.arange(n), indices))


def _data(n: int = 48) -> np.ndarray:
    return derive_rng(11, "fallback-data").integers(0, 2, size=n)


def _server(n: int = 48, *, fallback=None, budget: float = 1.0) -> QueryServer:
    return QueryServer(
        _data(n),
        mechanism="laplace",
        mechanism_params={"epsilon_per_query": 0.5},
        accountant=BasicAccountant(per_analyst_epsilon=budget),
        seed=5,
        synthetic_fallback=fallback,
    )


class TestConfig:
    def test_true_means_default_config(self):
        server = _server(fallback=True)
        assert isinstance(server.synthetic_fallback, SyntheticFallback)

    def test_false_and_none_disable(self):
        assert _server(fallback=False).synthetic_fallback is None
        assert _server(fallback=None).synthetic_fallback is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticFallback(epsilon=0.0)
        with pytest.raises(ValueError):
            SyntheticFallback(epsilon=float("nan"))
        with pytest.raises(ValueError):
            SyntheticFallback(rounds=0)
        with pytest.raises(ValueError):
            SyntheticFallback(density=1.5)


class TestWithoutFallback:
    def test_exhaustion_still_refuses(self):
        server = _server(fallback=None)
        session = server.session("alice")
        workload = Workload.random(48, 8, rng=derive_rng(0, "wl"))
        with pytest.raises(BudgetExhausted):
            session.ask_workload(workload)


class TestFallbackAnswers:
    def test_workload_answers_are_bit_deterministic(self):
        workload = Workload.random(48, 8, rng=derive_rng(0, "wl"))
        first = _server(fallback=True).session("alice").ask_workload(workload)
        second = _server(fallback=True).session("alice").ask_workload(workload)
        assert np.array_equal(first, second)
        # Exact counts on a binary vector: non-negative integers.
        assert np.array_equal(first, np.round(first))
        assert np.all(first >= 0)

    def test_single_query_falls_back(self):
        server = _server(fallback=True)
        session = server.session("alice")
        # Two affordable queries exhaust the 1.0 budget at 0.5 each...
        session.ask(_query([0, 1], 48))
        session.ask(_query([2, 3], 48))
        # ...so the third is answered synthetically, as an exact count.
        answer = session.ask(_query([4, 5, 6], 48))
        assert answer == float(int(answer))
        record = server.audit_log.records("alice")[-1]
        assert record.source == "synthetic"
        assert record.epsilon == 0.0

    def test_release_synthesized_once_and_registered(self):
        # The pseudo-account pays out of the same per-analyst policy, so
        # the budget must admit the release's one-time charge.
        server = _server(fallback=SyntheticFallback(epsilon=2.0, rounds=4), budget=2.0)
        session = server.session("alice")
        workload = Workload.random(48, 8, rng=derive_rng(0, "wl"))
        assert server.fallback_release is None
        session.ask_workload(workload)
        release = server.fallback_release
        assert release is not None
        session.ask_workload(Workload.random(48, 6, rng=derive_rng(1, "wl")))
        assert server.fallback_release is release  # not regenerated
        releases = server.audit_log.releases
        assert len(releases) == 1
        assert releases[0].analyst == "synthetic-release"
        assert releases[0].spec.dp is True
        assert releases[0].spec.spend.epsilon == 2.0
        assert "mwem-binary" in releases[0].spec.name

    def test_release_charged_to_its_own_account(self):
        server = _server(fallback=SyntheticFallback(epsilon=2.0), budget=2.0)
        session = server.session("alice")
        workload = Workload.random(48, 8, rng=derive_rng(0, "wl"))
        session.ask_workload(workload)
        assert server.accountant.analyst_epsilon("synthetic-release") == pytest.approx(2.0)
        # The analyst paid nothing for the refused batch.
        assert server.accountant.analyst_epsilon("alice") == pytest.approx(0.0)

    def test_mechanism_answers_precede_fallback(self):
        server = _server(fallback=True, budget=4.0)
        session = server.session("alice")
        # 8 queries x 0.5 fit the 4.0 budget: all answered by the mechanism.
        workload = Workload.random(48, 8, rng=derive_rng(2, "wl"))
        session.ask_workload(workload)
        sources = {record.source for record in server.audit_log.records("alice")}
        assert sources == {"mechanism"}
        # The next batch no longer fits and flips to synthetic.
        session.ask_workload(Workload.random(48, 8, rng=derive_rng(3, "wl")))
        sources = [record.source for record in server.audit_log.records("alice")]
        assert sources.count("mechanism") == 8
        assert sources.count("synthetic") == 8

    def test_synthetic_answers_not_cached(self):
        server = _server(fallback=True)
        session = server.session("alice")
        workload = Workload.random(48, 5, rng=derive_rng(4, "wl"))
        first = session.ask_workload(workload)
        second = session.ask_workload(workload)
        assert np.array_equal(first, second)
        # Every synthetic answer is logged with its true source — replays
        # are re-answered and re-logged, never served as cache hits.
        records = [r for r in server.audit_log.records("alice") if r.source == "synthetic"]
        assert len(records) == 10
        assert all(not record.cached for record in records)

    def test_repeated_rows_from_the_release_are_synthetic(self):
        # Three fresh queries at 0.5 overrun the 1.0 budget, so the whole
        # batch is answered from the release.  The repeat of q3 is answered
        # from the release too: it is logged as synthetic, uncached and
        # free, exactly like two single asks of q3 would be.
        n = 32
        server = QueryServer(
            _data(n),
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.5},
            accountant=BasicAccountant(per_analyst_epsilon=1.0),
            seed=5,
            synthetic_fallback=SyntheticFallback(epsilon=1.0, rounds=2),
        )
        q1, q2, q3 = (
            _query(indices, n)
            for indices in ([0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10, 11])
        )
        answers = server.session("alice").ask_workload([q1, q2, q3, q3])
        assert answers[3] == answers[2]
        records = server.audit_log.records("alice")
        assert [(r.source, r.cached, r.epsilon) for r in records] == [
            ("synthetic", False, 0.0)
        ] * 4
        assert server.accountant.analyst_epsilon("alice") == 0.0
