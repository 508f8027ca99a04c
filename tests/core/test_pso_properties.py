"""Property-based tests on the PSO core: predicate algebra and the
isolation/weight laws the framework's soundness rests on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isolation import isolation_probability, isolates
from repro.core.leftover_hash import hash_threshold_predicate
from repro.core.predicate import attribute_predicate, predicate_from_conditions
from repro.data.distributions import uniform_bits_distribution

DIST = uniform_bits_distribution(10)


@st.composite
def bit_conditions(draw):
    """A random conjunctive condition over the 10-bit schema."""
    attributes = draw(
        st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)
    )
    return {
        f"b{i}": frozenset(draw(st.sampled_from([{0}, {1}, {0, 1}])))
        for i in attributes
    }


class TestPredicateAlgebra:
    @given(conditions=bit_conditions())
    @settings(max_examples=40, deadline=None)
    def test_conjunction_commutes_semantically(self, conditions):
        items = sorted(conditions.items())
        if len(items) < 2:
            return
        left = attribute_predicate(*items[0])
        for name, allowed in items[1:]:
            left = left & attribute_predicate(name, allowed)
        right = attribute_predicate(*items[-1])
        for name, allowed in reversed(items[:-1]):
            right = right & attribute_predicate(name, allowed)
        data = DIST.sample(64, rng=0)
        for record in data:
            assert left(record) == right(record)

    @given(conditions=bit_conditions())
    @settings(max_examples=40, deadline=None)
    def test_weight_matches_structural_product(self, conditions):
        predicate = predicate_from_conditions(conditions)
        expected = 1.0
        for allowed in conditions.values():
            expected *= len(allowed) / 2.0
        assert predicate.weight(DIST) == pytest.approx(expected)

    @given(conditions=bit_conditions())
    @settings(max_examples=30, deadline=None)
    def test_conjunction_weight_never_increases(self, conditions):
        predicate = predicate_from_conditions(conditions)
        refined = predicate & attribute_predicate("b0", 1)
        assert refined.weight(DIST) <= predicate.weight(DIST) + 1e-12

    @given(conditions=bit_conditions())
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, conditions):
        predicate = predicate_from_conditions(conditions)
        doubled = predicate & predicate
        assert doubled.weight(DIST) == pytest.approx(predicate.weight(DIST))


class TestIsolationLaws:
    @given(seed=st.integers(0, 200), n=st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_isolation_iff_count_one(self, seed, n):
        data = DIST.sample(n, rng=seed)
        predicate = hash_threshold_predicate(f"prop-{seed}", 0.1)
        assert isolates(predicate, data) == (data.count(predicate) == 1)

    @given(n=st.integers(2, 5_000), w_scale=st.floats(0.05, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_isolation_probability_bounded_by_optimum(self, n, w_scale):
        weight = min(1.0, w_scale / n)
        assert isolation_probability(n, weight) <= isolation_probability(n, 1.0 / n) + 1e-12

    @given(n=st.integers(2, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_probability_sums_to_binomial_mass(self, n):
        # n*w*(1-w)^(n-1) with w=1/n lies in (1/e, 1/2] for n >= 2.
        value = isolation_probability(n, 1.0 / n)
        assert 0.367 < value <= 0.5 + 1e-12
