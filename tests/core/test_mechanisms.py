"""Tests for the PSO mechanism wrappers."""

import numpy as np
import pytest

from repro.anonymity.agreement import AgreementAnonymizer
from repro.anonymity.checks import is_k_anonymous
from repro.core.leftover_hash import hash_bit_predicate
from repro.core.mechanisms import (
    ComposedMechanism,
    ConstantMechanism,
    CountMechanism,
    DPCountMechanism,
    IdentityMechanism,
    KAnonymityMechanism,
    PostProcessedMechanism,
)
from repro.core.predicate import attribute_predicate
from repro.data.distributions import uniform_bits_distribution
from repro.data.generalized import GeneralizedDataset


@pytest.fixture(scope="module")
def data():
    return uniform_bits_distribution(16).sample(60, rng=0)


class TestCountMechanism:
    def test_counts_exactly(self, data):
        mechanism = CountMechanism(attribute_predicate("b0", 1))
        truth = sum(1 for record in data if record["b0"] == 1)
        assert mechanism.release(data) == truth

    def test_deterministic(self, data):
        mechanism = CountMechanism(hash_bit_predicate("q", 0))
        assert mechanism.release(data) == mechanism.release(data)

    def test_name_mentions_query(self):
        mechanism = CountMechanism(attribute_predicate("b0", 1))
        assert "b0" in mechanism.name


class TestDPCountMechanism:
    def test_noisy_but_centered(self, data):
        mechanism = DPCountMechanism(attribute_predicate("b0", 1), epsilon=1.0)
        truth = sum(1 for record in data if record["b0"] == 1)
        rng = np.random.default_rng(1)
        releases = [mechanism.release(data, rng) for _ in range(2_000)]
        assert np.mean(releases) == pytest.approx(truth, abs=0.2)

    def test_epsilon_property(self):
        mechanism = DPCountMechanism(attribute_predicate("b0", 1), epsilon=0.5)
        assert mechanism.epsilon == 0.5


class TestPostProcessed:
    def test_applies_function(self, data):
        base = CountMechanism(attribute_predicate("b0", 1))
        parity = PostProcessedMechanism(base, lambda c: c % 2, label="parity")
        assert parity.release(data) == base.release(data) % 2
        assert parity.name.startswith("parity(")


class TestComposed:
    def test_tuple_of_components(self, data):
        components = [
            CountMechanism(attribute_predicate(f"b{i}", 1)) for i in range(3)
        ]
        composed = ComposedMechanism(components)
        output = composed.release(data, rng=0)
        assert len(output) == 3
        assert output == tuple(m.release(data) for m in components)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ComposedMechanism([])

    def test_len(self):
        composed = ComposedMechanism([ConstantMechanism()] * 5)
        assert len(composed) == 5

    def test_name_truncates(self):
        composed = ComposedMechanism([ConstantMechanism()] * 5)
        assert "x5" in composed.name


class TestKAnonymityMechanism:
    def test_releases_generalized_dataset(self, data):
        mechanism = KAnonymityMechanism(AgreementAnonymizer(4))
        release = mechanism.release(data)
        assert isinstance(release, GeneralizedDataset)
        assert is_k_anonymous(release, 4)

    def test_rejects_non_anonymizer(self):
        with pytest.raises(TypeError):
            KAnonymityMechanism(object())

    def test_name_includes_k(self):
        mechanism = KAnonymityMechanism(AgreementAnonymizer(4), label="agree")
        assert mechanism.name == "agree(k=4)"


class TestExtremes:
    def test_constant_ignores_data(self, data):
        mechanism = ConstantMechanism("nothing")
        assert mechanism.release(data) == "nothing"

    def test_identity_returns_data(self, data):
        mechanism = IdentityMechanism()
        assert mechanism.release(data) is data
