"""Failure-injection tests: the library under adversarial/broken inputs.

A production reproduction must degrade honestly: lying mechanisms get
caught, inconsistent publications still produce output through documented
fallbacks, and bad evidence blocks legal conclusions instead of tainting
them.
"""

import numpy as np
import pytest

from repro.queries.mechanism import QueryAnswerer
from repro.queries.query import SubsetQuery


class LyingAnswerer(QueryAnswerer):
    """Claims zero error but answers with large bias — a broken guarantee."""

    def __init__(self, data, bias=10.0):
        super().__init__(data)
        self.bias = bias

    @property
    def error_bound(self) -> float:
        return 0.0  # a lie

    def _noisy(self, query: SubsetQuery) -> float:
        return float(query.true_answer(self._data) + self.bias)


class TestLyingMechanisms:
    def test_exhaustive_reconstruction_detects_the_lie(self):
        """No candidate is consistent with impossible answers at alpha=0."""
        from repro.reconstruction.dinur_nissim import exhaustive_reconstruction

        data = np.array([1, 0, 1, 0, 1, 0])
        with pytest.raises(ValueError, match="violated"):
            exhaustive_reconstruction(LyingAnswerer(data))

    def test_lp_reconstruction_degrades_gracefully(self):
        """The LP attack falls back to least-l1 when feasibility fails."""
        from repro.reconstruction.lp_decode import lp_reconstruction

        data = np.random.default_rng(0).integers(0, 2, size=32)
        result = lp_reconstruction(LyingAnswerer(data), rng=1)
        # A constant bias shifts every answer equally; the residual
        # minimization still lands somewhere valid.
        assert result.reconstruction.shape == data.shape

    def test_dp_verifier_catches_underclaimed_epsilon(self):
        from repro.dp import LaplaceMechanism, verify_dp

        loud = LaplaceMechanism(8.0)  # actually 8-DP, claimed 0.1-DP
        verdict = verify_dp(
            lambda d, rng: loud.release(float(np.sum(d)), rng),
            np.array([1, 1, 0]),
            np.array([1, 0, 0]),
            epsilon=0.1,
            trials=6_000,
            rng=0,
        )
        assert not verdict.consistent


class TestInconsistentPublications:
    def test_census_solver_survives_contradictory_tables(self):
        """Rounded tables can make the MILP infeasible; the proportional
        fallback still produces a full reconstruction."""
        from repro.data.censusblocks import CensusConfig, generate_census
        from repro.reconstruction.census_solver import reconstruct_census
        from repro.reconstruction.tabulation import apply_rounding, tabulate_blocks

        census = generate_census(CensusConfig(blocks=6, mean_block_size=10), rng=2)
        tables = apply_rounding(tabulate_blocks(census), base=4)
        result = reconstruct_census(tables, truth=census)
        assert result.population == sum(t.total for t in tables.values())

    def test_block_tables_reject_wrong_totals(self):
        from repro.reconstruction.tabulation import BlockTables

        with pytest.raises(ValueError, match="sums to"):
            BlockTables(
                block=0,
                total=3,
                sex_by_age={("F", 30): 1},
                race_by_ethnicity={("White", "Hispanic"): 3},
                sex_by_race={("F", "White"): 3},
            )


class TestEvidenceDiscipline:
    def test_failed_attack_cannot_support_legal_theorem(self):
        from repro.core.theorems import TheoremCheck
        from repro.legal import legal_theorem_2_1
        from repro.legal.claims import DerivationError

        failed = TheoremCheck(theorem="2.10", claim="attack failed", passed=False)
        with pytest.raises(DerivationError, match="REFUTED"):
            legal_theorem_2_1(failed, failed, failed)

    def test_game_scores_garbage_weight_predicates_honestly(self):
        """An attacker claiming an absurd analytic weight still has to
        isolate; the claim alone wins nothing."""
        from repro.core import ConstantMechanism, PSOGame
        from repro.core.predicate import Predicate
        from repro.data.distributions import uniform_bits_distribution

        class OverclaimingAttacker:
            name = "overclaimer"

            def attack(self, output, context, rng):
                # Claims negligible weight but matches nothing, ever.
                return Predicate(lambda r: False, "never", analytic_weight=1e-12)

        distribution = uniform_bits_distribution(16)
        game = PSOGame(distribution, 50, ConstantMechanism(), OverclaimingAttacker())
        result = game.run(20, rng=3)
        assert result.negligible_weight_rate.estimate == 1.0
        assert result.success.estimate == 0.0  # no isolation, no win
