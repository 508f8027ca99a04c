"""Property-based tests on the distribution layer's probability laws."""

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


@st.composite
def categorical_distributions(draw):
    """A random categorical distribution over 2-8 values."""
    size = draw(st.integers(2, 8))
    weights = draw(
        st.lists(st.floats(0.01, 10.0), min_size=size, max_size=size)
    )
    total = sum(weights)
    domain = CategoricalDomain([f"v{i}" for i in range(size)])
    return AttributeDistribution(
        domain, {f"v{i}": w / total for i, w in enumerate(weights)}
    )


class TestAttributeDistributionLaws:
    @given(dist=categorical_distributions())
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, dist):
        total = sum(dist.probability(v) for v in dist.domain)
        assert total == pytest.approx(1.0)

    @given(dist=categorical_distributions())
    @settings(max_examples=40, deadline=None)
    def test_set_probability_is_additive(self, dist):
        values = list(dist.domain)
        half = set(values[: len(values) // 2])
        rest = set(values) - half
        assert dist.probability_of_set(half) + dist.probability_of_set(rest) == (
            pytest.approx(1.0)
        )

    @given(dist=categorical_distributions())
    @settings(max_examples=40, deadline=None)
    def test_min_entropy_bounds(self, dist):
        import math

        entropy = dist.min_entropy()
        assert 0.0 <= entropy <= math.log2(len(dist.domain)) + 1e-9

    @given(dist=categorical_distributions(), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_samples_stay_in_support(self, dist, seed):
        support = set(dist.support)
        for value in dist.sample(50, rng=seed):
            assert value in support


class TestProductDistributionLaws:
    @given(width=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_record_probabilities_product(self, width):
        dist = uniform_bits_distribution(width)
        record = dist.sample(1, rng=0)[0]
        assert dist.record_probability(record) == pytest.approx(0.5**width)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_conjunction_weight_monotone_in_conditions(self, seed):
        schema = Schema(
            [
                Attribute("a", IntegerDomain(0, 9), AttributeKind.QUASI_IDENTIFIER),
                Attribute("b", IntegerDomain(0, 9), AttributeKind.QUASI_IDENTIFIER),
            ]
        )
        dist = ProductDistribution.uniform(schema)
        loose = dist.conjunction_weight({"a": set(range(5))})
        tight = dist.conjunction_weight({"a": set(range(5)), "b": set(range(3))})
        assert tight <= loose
        assert tight == pytest.approx(0.5 * 0.3)
