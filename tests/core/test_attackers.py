"""Tests for the PSO adversaries."""

import numpy as np
import pytest

from repro.anonymity.agreement import AgreementAnonymizer
from repro.core.attackers import (
    CompositionAttacker,
    IdentityAttacker,
    KAnonymityPSOAttacker,
    TrivialAttacker,
    build_composition_suite,
)
from repro.core.pso import PSOContext
from repro.data.distributions import ProductDistribution, uniform_bits_distribution, uniform_bits_schema
from repro.data.domain import CategoricalDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture(scope="module")
def distribution():
    return uniform_bits_distribution(64)


@pytest.fixture
def context(distribution):
    return PSOContext(n=200, distribution=distribution)


def _rng():
    return np.random.default_rng(0)


class TestTrivialAttacker:
    def test_optimal_weight(self, context):
        predicate = TrivialAttacker("optimal").attack(None, context, _rng())
        assert predicate.analytic_weight == pytest.approx(1.0 / 200)

    def test_negligible_weight(self, context):
        predicate = TrivialAttacker("negligible").attack(None, context, _rng())
        assert predicate.analytic_weight == pytest.approx(context.weight_threshold)

    def test_explicit_float(self, context):
        predicate = TrivialAttacker(0.125).attack(None, context, _rng())
        assert predicate.analytic_weight == 0.125

    def test_fresh_salts_per_attack(self, context):
        attacker = TrivialAttacker("optimal")
        rng = _rng()
        a = attacker.attack(None, context, rng)
        b = attacker.attack(None, context, rng)
        # Different salts: descriptions differ.
        assert a.description != b.description

    def test_invalid_presets(self):
        with pytest.raises(ValueError):
            TrivialAttacker("huge")
        with pytest.raises(ValueError):
            TrivialAttacker(0.0)


class TestIdentityAttacker:
    def test_reads_unique_record(self, context, distribution):
        data = distribution.sample(50, rng=2)
        predicate = IdentityAttacker().attack(data, context, _rng())
        assert predicate is not None
        assert data.count(predicate) == 1

    def test_abstains_on_non_dataset(self, context):
        assert IdentityAttacker().attack(42, context, _rng()) is None

    def test_abstains_when_all_duplicated(self, context):
        from repro.data.dataset import Dataset

        schema = uniform_bits_schema(4)
        data = Dataset(schema, [(0, 0, 0, 0), (0, 0, 0, 0)], validate=False)
        assert IdentityAttacker().attack(data, context, _rng()) is None


class TestCompositionSuite:
    def test_suite_sizes(self):
        suite = build_composition_suite(256)
        levels = len(suite.adversary.thresholds)
        assert suite.num_counts == levels * (1 + suite.adversary.bits)
        assert suite.adversary.bits >= 2 * np.log2(256)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_composition_suite(1)

    def test_attack_round_trip(self, distribution):
        n = 128
        suite = build_composition_suite(n)
        context = PSOContext(n=n, distribution=distribution)
        rng = _rng()
        wins = 0
        for seed in range(10):
            data = distribution.sample(n, rng=seed)
            output = suite.mechanism.release(data, rng)
            predicate = suite.adversary.attack(output, context, rng)
            if predicate is None:
                continue
            # The predicate must carry a negligible analytic weight.
            assert predicate.analytic_weight <= context.weight_threshold
            if data.count(predicate) == 1:
                wins += 1
        assert wins >= 3  # well above the ~n^-1 secure ceiling

    def test_abstains_on_malformed_output(self, context):
        suite = build_composition_suite(128)
        assert suite.adversary.attack("bogus", context, _rng()) is None
        assert suite.adversary.attack((1, 2, 3), context, _rng()) is None

    def test_abstains_without_singleton_level(self, context):
        suite = build_composition_suite(128)
        levels = len(suite.adversary.thresholds)
        fake = tuple([0] * levels + [0] * (levels * suite.adversary.bits))
        assert suite.adversary.attack(fake, context, _rng()) is None

    def test_attacker_validation(self):
        with pytest.raises(ValueError):
            CompositionAttacker("s", (), 4)
        with pytest.raises(ValueError):
            CompositionAttacker("s", (0.5, 0.1), 4)  # not ascending
        with pytest.raises(ValueError):
            CompositionAttacker("s", (0.1, 0.5), 0)


class TestKAnonymityAttacker:
    def test_refine_mode_produces_negligible_conjunction(self):
        distribution = uniform_bits_distribution(128)
        context = PSOContext(n=250, distribution=distribution)
        data = distribution.sample(250, rng=3)
        release = AgreementAnonymizer(4).anonymize(data)
        predicate = KAnonymityPSOAttacker("refine").attack(release, context, _rng())
        assert predicate is not None
        bound = predicate.weight_bound(distribution)
        assert bound <= context.weight_threshold

    def test_singleton_mode_needs_singletons(self):
        # All-QI data: agreement groups are exact classes of size k, so no
        # singleton exists and the attacker abstains.
        distribution = uniform_bits_distribution(64)
        context = PSOContext(n=100, distribution=distribution)
        data = distribution.sample(100, rng=4)
        release = AgreementAnonymizer(4).anonymize(data)
        assert KAnonymityPSOAttacker("singleton").attack(release, context, _rng()) is None

    def test_singleton_mode_with_raw_sensitive(self):
        bits = uniform_bits_schema(96)
        schema = Schema(
            list(bits.attributes)
            + [Attribute("secret", CategoricalDomain(range(50)), AttributeKind.SENSITIVE)]
        )
        distribution = ProductDistribution.uniform(schema)
        context = PSOContext(n=200, distribution=distribution)
        data = distribution.sample(200, rng=5)
        release = AgreementAnonymizer(4).anonymize(data)
        predicate = KAnonymityPSOAttacker("singleton").attack(release, context, _rng())
        assert predicate is not None
        assert data.count(predicate) == 1  # isolates the singleton's source

    def test_abstains_on_non_release(self, context):
        assert KAnonymityPSOAttacker().attack(42, context, _rng()) is None

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            KAnonymityPSOAttacker("aggressive")


class TestCountExploitingAttacker:
    def test_predicate_depends_on_output(self, context):
        from repro.core.attackers import CountExploitingAttacker

        attacker = CountExploitingAttacker()
        a = attacker.attack(17, context, np.random.default_rng(0))
        b = attacker.attack(18, context, np.random.default_rng(0))
        assert a.description != b.description  # output folded into the salt

    def test_weight_presets(self, context):
        from repro.core.attackers import CountExploitingAttacker

        negligible = CountExploitingAttacker("negligible").attack(5, context, _rng())
        assert negligible.analytic_weight == pytest.approx(context.weight_threshold)
        optimal = CountExploitingAttacker("optimal").attack(5, context, _rng())
        assert optimal.analytic_weight == pytest.approx(1.0 / context.n)
        with pytest.raises(ValueError):
            CountExploitingAttacker("heavy")
