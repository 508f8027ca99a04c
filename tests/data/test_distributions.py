"""Tests for attribute and product distributions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distributions import (
    AttributeDistribution,
    ProductDistribution,
    uniform_bits_distribution,
)
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema


class TestAttributeDistribution:
    def test_uniform(self):
        dist = AttributeDistribution.uniform(CategoricalDomain(["a", "b", "c", "d"]))
        assert dist.probability("a") == pytest.approx(0.25)
        assert dist.probability("zzz") == 0.0

    def test_probabilities_must_sum_to_one(self):
        domain = CategoricalDomain(["a", "b"])
        with pytest.raises(ValueError):
            AttributeDistribution(domain, {"a": 0.7, "b": 0.7})

    def test_missing_value_rejected(self):
        domain = CategoricalDomain(["a", "b"])
        with pytest.raises(ValueError):
            AttributeDistribution(domain, {"a": 1.0})

    def test_extra_value_rejected(self):
        domain = CategoricalDomain(["a"])
        with pytest.raises(ValueError):
            AttributeDistribution(domain, {"a": 0.5, "b": 0.5})

    def test_negative_probability_rejected(self):
        domain = CategoricalDomain(["a", "b"])
        with pytest.raises(ValueError):
            AttributeDistribution(domain, {"a": 1.5, "b": -0.5})

    def test_zipf_is_decreasing_in_rank(self):
        dist = AttributeDistribution.zipf(CategoricalDomain(list("abcdef")), exponent=1.0)
        probs = [dist.probability(v) for v in "abcdef"]
        assert probs == sorted(probs, reverse=True)

    def test_zipf_zero_exponent_is_uniform(self):
        dist = AttributeDistribution.zipf(CategoricalDomain(["a", "b"]), exponent=0.0)
        assert dist.probability("a") == pytest.approx(0.5)

    def test_probability_of_set(self):
        dist = AttributeDistribution.uniform(IntegerDomain(1, 10))
        assert dist.probability_of_set({1, 2, 3}) == pytest.approx(0.3)
        assert dist.probability_of_set(lambda v: v > 8) == pytest.approx(0.2)

    def test_min_entropy_uniform(self):
        dist = AttributeDistribution.uniform(IntegerDomain(0, 255))
        assert dist.min_entropy() == pytest.approx(8.0)

    def test_sampling_respects_probabilities(self):
        domain = CategoricalDomain(["rare", "common"])
        dist = AttributeDistribution(domain, {"rare": 0.1, "common": 0.9})
        samples = dist.sample(5_000, rng=0)
        frequency = samples.count("rare") / len(samples)
        assert frequency == pytest.approx(0.1, abs=0.02)

    def test_support(self):
        domain = CategoricalDomain(["a", "b"])
        dist = AttributeDistribution(domain, {"a": 1.0, "b": 0.0})
        assert dist.support == ["a"]


class TestProductDistribution:
    @pytest.fixture
    def schema(self) -> Schema:
        return Schema(
            [
                Attribute("color", CategoricalDomain(["r", "g"]), AttributeKind.QUASI_IDENTIFIER),
                Attribute("size", IntegerDomain(1, 4), AttributeKind.QUASI_IDENTIFIER),
            ]
        )

    def test_uniform_construction(self, schema):
        dist = ProductDistribution.uniform(schema)
        assert dist.record_probability(("r", 1)) == pytest.approx(1 / 8)

    def test_missing_marginal_rejected(self, schema):
        with pytest.raises(ValueError):
            ProductDistribution(
                schema, {"color": AttributeDistribution.uniform(schema.attribute("color").domain)}
            )

    def test_wrong_domain_rejected(self, schema):
        marginals = {
            "color": AttributeDistribution.uniform(CategoricalDomain(["x"])),
            "size": AttributeDistribution.uniform(schema.attribute("size").domain),
        }
        with pytest.raises(ValueError):
            ProductDistribution(schema, marginals)

    def test_sampling_shape_and_validity(self, schema):
        dist = ProductDistribution.uniform(schema)
        data = dist.sample(100, rng=0)
        assert len(data) == 100
        for record in data:
            schema.validate_record(record.values)

    def test_sample_deterministic(self, schema):
        dist = ProductDistribution.uniform(schema)
        assert dist.sample(10, rng=1).rows == dist.sample(10, rng=1).rows

    def test_conjunction_weight_exact(self, schema):
        dist = ProductDistribution.uniform(schema)
        weight = dist.conjunction_weight({"color": {"r"}, "size": {1, 2}})
        assert weight == pytest.approx(0.5 * 0.5)

    def test_conjunction_weight_unconstrained_attribute(self, schema):
        dist = ProductDistribution.uniform(schema)
        assert dist.conjunction_weight({"color": {"r", "g"}}) == pytest.approx(1.0)

    def test_conjunction_weight_unknown_attribute(self, schema):
        dist = ProductDistribution.uniform(schema)
        with pytest.raises(KeyError):
            dist.conjunction_weight({"height": {1}})

    def test_estimate_weight_matches_exact(self, schema):
        dist = ProductDistribution.uniform(schema)
        exact = dist.conjunction_weight({"color": {"r"}})
        estimate = dist.estimate_weight(lambda r: r["color"] == "r", samples=4_000, rng=0)
        assert estimate == pytest.approx(exact, abs=0.03)

    def test_min_entropy_sums(self, schema):
        dist = ProductDistribution.uniform(schema)
        assert dist.min_entropy() == pytest.approx(1.0 + 2.0)

    @given(n=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_sample_size(self, n):
        dist = uniform_bits_distribution(4)
        assert len(dist.sample(n, rng=0)) == n


class TestHelpers:
    def test_uniform_bits(self):
        dist = uniform_bits_distribution(16)
        assert dist.min_entropy() == pytest.approx(16.0)
        record = dist.sample(1, rng=0)[0]
        assert all(value in (0, 1) for value in record.values)

    def test_uniform_bits_invalid_width(self):
        with pytest.raises(ValueError):
            uniform_bits_distribution(0)
