"""Thread-safety: concurrent sessions, atomic budgets, per-analyst determinism."""

import threading

import numpy as np

from repro.queries.mechanism import LaplaceAnswerer
from repro.queries.workload import Workload
from repro.service import BasicAccountant, BudgetExhausted, QueryServer
from repro.utils.rng import derive_rng


def _run_threads(targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestAnswererThreadSafety:
    def test_concurrent_workloads_never_lose_counts(self):
        data = derive_rng(0, "d").integers(0, 2, size=16)
        answerer = LaplaceAnswerer(data, epsilon_per_query=0.5, rng=0)
        workload = Workload.random(16, 25, rng=1)

        def worker():
            for _ in range(8):
                answerer.answer_workload(workload)

        _run_threads([worker] * 8)
        assert answerer.queries_answered == 8 * 8 * 25


class TestQueryCap:
    def test_never_overshoots(self):
        accountant = BasicAccountant(max_queries_per_analyst=100)
        successes = []
        refusals = []

        def worker():
            for _ in range(40):
                try:
                    accountant.charge("analyst", 1, 0.5)
                    successes.append(1)
                except BudgetExhausted:
                    refusals.append(1)

        _run_threads([worker] * 8)
        # The atomic charge admits exactly max_queries_per_analyst queries, ever,
        # and a refused charge leaves no epsilon behind.
        assert len(successes) == 100
        assert accountant.analyst_queries("analyst") == 100
        assert accountant.analyst_epsilon("analyst") == 50.0
        assert len(refusals) == 8 * 40 - 100

    def test_workloads_all_or_nothing_under_contention(self):
        accountant = BasicAccountant(max_queries_per_analyst=60)
        admitted = []

        def worker():
            for _ in range(20):
                try:
                    accountant.charge("analyst", 7, 0.0)
                    admitted.append(7)
                except BudgetExhausted:
                    pass

        _run_threads([worker] * 6)
        assert sum(admitted) == accountant.analyst_queries("analyst")
        # 7 does not divide 60: the atomic charge leaves a remainder unspent.
        assert accountant.analyst_queries("analyst") == 56


class TestConcurrentSessions:
    def _serial_reference(self, n, seed, analyst_workloads):
        server = QueryServer(
            np.asarray(derive_rng(seed, "data").integers(0, 2, size=n)),
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.5},
            seed=seed,
        )
        return {
            analyst: [server.ask_workload(analyst, w) for w in workloads]
            for analyst, workloads in analyst_workloads.items()
        }

    def test_concurrent_answers_match_serial_bitwise(self):
        n, seed = 24, 42
        analyst_workloads = {
            f"analyst-{index}": [
                Workload.random(n, 9, rng=derive_rng(seed, "w", index, round_))
                for round_ in range(5)
            ]
            for index in range(8)
        }
        reference = self._serial_reference(n, seed, analyst_workloads)

        server = QueryServer(
            np.asarray(derive_rng(seed, "data").integers(0, 2, size=n)),
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.5},
            seed=seed,
        )
        results = {analyst: [] for analyst in analyst_workloads}
        barrier = threading.Barrier(len(analyst_workloads))

        def worker(analyst):
            session = server.session(analyst)
            barrier.wait()  # maximize interleaving
            for workload in analyst_workloads[analyst]:
                results[analyst].append(session.ask_workload(workload))

        _run_threads(
            [
                (lambda a: (lambda: worker(a)))(analyst)
                for analyst in analyst_workloads
            ]
        )
        for analyst, rounds in reference.items():
            for round_index, expected in enumerate(rounds):
                assert np.array_equal(results[analyst][round_index], expected), (
                    f"{analyst} round {round_index} diverged under concurrency"
                )

    def test_global_budget_never_oversubscribed(self):
        n, seed = 16, 7
        # 10 queries * 0.5 eps fit; each analyst tries to claim 8.
        accountant = BasicAccountant(global_epsilon=5.0)
        server = QueryServer(
            np.asarray(derive_rng(seed, "data").integers(0, 2, size=n)),
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.5},
            accountant=accountant,
            seed=seed,
        )
        outcomes = []

        def worker(index):
            workload = Workload.random(n, 8, rng=derive_rng(seed, "w", index))
            try:
                server.ask_workload(f"analyst-{index}", workload)
                outcomes.append("ok")
            except BudgetExhausted:
                outcomes.append("refused")

        _run_threads([(lambda i: (lambda: worker(i)))(index) for index in range(4)])
        assert outcomes.count("ok") == 1  # only one 8-query claim fits in 10
        assert accountant.global_spent() <= 5.0 + 1e-9

    def test_audit_log_complete_under_concurrency(self):
        n, seed = 16, 3
        server = QueryServer(
            np.asarray(derive_rng(seed, "data").integers(0, 2, size=n)),
            mechanism="exact",
            seed=seed,
        )

        def worker(index):
            session = server.session(f"analyst-{index}")
            for round_ in range(10):
                session.ask_workload(
                    Workload.random(n, 5, rng=derive_rng(seed, "w", index, round_))
                )

        _run_threads([(lambda i: (lambda: worker(i)))(index) for index in range(6)])
        records = server.audit_log.records()
        assert len(records) == 6 * 10 * 5
        assert [record.seq for record in records] == list(range(len(records)))
