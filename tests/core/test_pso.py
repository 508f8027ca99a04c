"""Tests for the PSO security game."""

import pytest

from repro.core.attackers import IdentityAttacker, TrivialAttacker
from repro.core.mechanisms import ConstantMechanism, IdentityMechanism
from repro.core.pso import PSOContext, PSOGame, PSOTrial
from repro.data.distributions import uniform_bits_distribution


@pytest.fixture(scope="module")
def distribution():
    return uniform_bits_distribution(48)


class TestContext:
    def test_threshold(self, distribution):
        context = PSOContext(n=100, distribution=distribution)
        assert context.weight_threshold == pytest.approx(1e-4)

    def test_invalid_n(self, distribution):
        with pytest.raises(ValueError):
            PSOContext(n=0, distribution=distribution)


class TestTrial:
    def test_success_requires_both_conditions(self):
        assert PSOTrial(True, 1e-9, True, False).succeeded
        assert not PSOTrial(True, 0.5, False, False).succeeded
        assert not PSOTrial(False, 1e-9, True, False).succeeded


class TestGame:
    def test_constant_mechanism_trivial_optimal(self, distribution):
        # ~37% isolation, 0% success (weight too heavy).
        game = PSOGame(distribution, 150, ConstantMechanism(), TrivialAttacker("optimal"))
        result = game.run(120, rng=0)
        assert result.isolation_rate.estimate == pytest.approx(0.37, abs=0.12)
        assert result.success.estimate == 0.0
        assert result.negligible_weight_rate.estimate == 0.0

    def test_constant_mechanism_trivial_negligible(self, distribution):
        # Weight condition satisfied, isolation almost never.
        game = PSOGame(
            distribution, 150, ConstantMechanism(), TrivialAttacker("negligible")
        )
        result = game.run(120, rng=1)
        assert result.negligible_weight_rate.estimate == 1.0
        assert result.success.estimate <= 0.03
        assert not result.beats_baseline()

    def test_identity_mechanism_broken(self, distribution):
        game = PSOGame(distribution, 100, IdentityMechanism(), IdentityAttacker())
        result = game.run(60, rng=2)
        assert result.success.estimate >= 0.95
        assert result.beats_baseline()

    def test_abstention_counts_as_failure(self, distribution):
        class AbstainingAttacker:
            name = "abstain"

            def attack(self, output, context, rng):
                return None

        game = PSOGame(distribution, 50, ConstantMechanism(), AbstainingAttacker())
        result = game.run(20, rng=3)
        assert result.success.estimate == 0.0
        assert all(trial.abstained for trial in result.trials)

    def test_deterministic_given_seed(self, distribution):
        game = PSOGame(distribution, 80, ConstantMechanism(), TrivialAttacker("optimal"))
        a = game.run(30, rng=7)
        b = game.run(30, rng=7)
        assert a.success.successes == b.success.successes

    def test_invalid_trials(self, distribution):
        game = PSOGame(distribution, 50, ConstantMechanism(), TrivialAttacker())
        with pytest.raises(ValueError):
            game.run(0)

    def test_result_string(self, distribution):
        game = PSOGame(distribution, 50, ConstantMechanism(), TrivialAttacker())
        result = game.run(10, rng=4)
        text = str(result)
        assert "constant" in text and "trivial" in text

    def test_baseline_value(self, distribution):
        game = PSOGame(distribution, 365, ConstantMechanism(), TrivialAttacker())
        result = game.run(5, rng=5)
        assert result.baseline == pytest.approx(0.368, abs=0.001)


class TestHeavyMode:
    """Footnote 11: the 'heavy' weight regime, treated analogously."""

    def test_heavy_threshold_scale(self, distribution):
        import math

        context = PSOContext(n=200, distribution=distribution, mode="heavy")
        assert context.heavy_threshold == pytest.approx(4 * math.log(200) / 200)

    def test_weight_qualifies_flips_between_modes(self, distribution):
        light = PSOContext(n=200, distribution=distribution)
        heavy = PSOContext(n=200, distribution=distribution, mode="heavy")
        negligible = 1e-7
        heavy_weight = 0.2
        assert light.weight_qualifies(negligible)
        assert not light.weight_qualifies(heavy_weight)
        assert heavy.weight_qualifies(heavy_weight)
        assert not heavy.weight_qualifies(negligible)

    def test_trivial_attacker_fails_in_heavy_mode_too(self, distribution):
        # A heavy data-independent predicate matches many records, so it
        # (almost) never matches exactly one: no output, no win.
        game = PSOGame(
            distribution,
            150,
            ConstantMechanism(),
            TrivialAttacker(0.25),  # heavy weight
            mode="heavy",
        )
        result = game.run(100, rng=9)
        assert result.negligible_weight_rate.estimate == 1.0  # weight qualifies
        assert result.success.estimate <= 0.02  # but isolation never happens

    def test_identity_attacker_loses_heavy_mode(self, distribution):
        # The identity reader emits negligible-weight predicates, which the
        # heavy-mode condition rejects: the game is mode-faithful.
        game = PSOGame(
            distribution, 100, IdentityMechanism(), IdentityAttacker(), mode="heavy"
        )
        result = game.run(30, rng=10)
        assert result.success.estimate == 0.0
        assert result.isolation_rate.estimate >= 0.9

    def test_invalid_mode(self, distribution):
        with pytest.raises(ValueError):
            PSOContext(n=10, distribution=distribution, mode="medium")
        with pytest.raises(ValueError):
            PSOContext(n=10, distribution=distribution, heavy_coefficient=0.5)
