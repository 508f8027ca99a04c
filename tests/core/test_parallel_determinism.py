"""Bit-identical results across worker counts (the engine's contract).

Every Monte-Carlo estimator that takes ``jobs`` must produce exactly the
same numbers for a fixed seed no matter how the trials are scheduled:
inline or across a pool of forked workers.  These tests pin that down on
the two wired layers — the PSO game and the isolation estimator.
"""

import pytest

from repro.core.attackers import TrivialAttacker
from repro.core.isolation import estimate_isolation_rate
from repro.core.leftover_hash import hash_threshold_predicate
from repro.core.mechanisms import CountMechanism
from repro.core.pso import PSOGame
from repro.core.leftover_hash import hash_bit_predicate
from repro.data.distributions import uniform_bits_distribution


@pytest.fixture(scope="module")
def distribution():
    return uniform_bits_distribution(48)


class TestGameDeterminism:
    TRIALS = 24

    def _run(self, distribution, jobs):
        game = PSOGame(
            distribution,
            120,
            CountMechanism(hash_bit_predicate("det-q", 0)),
            TrivialAttacker("negligible"),
        )
        return game.run(self.TRIALS, rng=7, jobs=jobs)

    def test_process_jobs_match_serial_trials_exactly(self, distribution):
        serial = self._run(distribution, jobs=1)
        parallel = self._run(distribution, jobs=4)
        assert parallel.trials == serial.trials
        assert str(parallel.success) == str(serial.success)

    def test_different_seeds_differ(self, distribution):
        game = PSOGame(
            distribution,
            120,
            CountMechanism(hash_bit_predicate("det-q", 0)),
            TrivialAttacker("optimal"),
        )
        first = game.run(self.TRIALS, rng=1, jobs=2)
        second = game.run(self.TRIALS, rng=2, jobs=2)
        assert first.trials != second.trials


class TestEstimatorDeterminism:
    def test_isolation_rate_across_jobs(self, distribution):
        predicate = hash_threshold_predicate("det-iso", 1.0 / 120)
        runs = [
            estimate_isolation_rate(
                predicate, distribution, n=120, trials=40, rng=11, jobs=jobs
            )
            for jobs in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]
