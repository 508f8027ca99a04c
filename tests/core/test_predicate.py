"""Tests for predicates and weight computation."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leftover_hash import hash_threshold_predicate
from repro.core.predicate import (
    Predicate,
    attribute_predicate,
    predicate_from_conditions,
)
from repro.data.dataset import Record
from repro.data.distributions import (
    ProductDistribution,
    uniform_bits_distribution,
)
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.utils.rng import derive_rng


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("zip", CategoricalDomain(["12340", "12341", "23456"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("age", IntegerDomain(0, 99), AttributeKind.QUASI_IDENTIFIER),
        ]
    )


@pytest.fixture
def distribution(schema) -> ProductDistribution:
    return ProductDistribution.uniform(schema)


class TestAttributePredicate:
    def test_single_value(self, schema):
        predicate = attribute_predicate("age", 30)
        assert predicate(Record(schema, ("12340", 30)))
        assert not predicate(Record(schema, ("12340", 31)))

    def test_value_set(self, schema):
        predicate = attribute_predicate("zip", {"12340", "12341"})
        assert predicate(Record(schema, ("12341", 5)))
        assert not predicate(Record(schema, ("23456", 5)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            attribute_predicate("zip", set())

    def test_exact_weight(self, distribution):
        predicate = attribute_predicate("zip", {"12340", "12341"})
        assert predicate.weight(distribution) == pytest.approx(2.0 / 3.0)


class TestConjunction:
    def test_structural_merge(self, schema, distribution):
        a = attribute_predicate("zip", {"12340", "12341"})
        b = attribute_predicate("age", set(range(0, 50)))
        conjunction = a & b
        assert conjunction.conditions is not None
        assert conjunction.weight(distribution) == pytest.approx((2 / 3) * 0.5)

    def test_same_attribute_intersects(self, distribution):
        a = attribute_predicate("age", set(range(0, 50)))
        b = attribute_predicate("age", set(range(25, 75)))
        conjunction = a & b
        assert conjunction.weight(distribution) == pytest.approx(0.25)

    def test_contradiction_has_zero_weight(self, distribution):
        a = attribute_predicate("age", 10)
        b = attribute_predicate("age", 20)
        assert (a & b).weight(distribution) == 0.0

    def test_semantics(self, schema):
        a = attribute_predicate("zip", "12340")
        b = attribute_predicate("age", 30)
        conjunction = a & b
        assert conjunction(Record(schema, ("12340", 30)))
        assert not conjunction(Record(schema, ("12340", 31)))
        assert not conjunction(Record(schema, ("23456", 30)))

    def test_analytic_weights_multiply(self):
        a = Predicate(lambda r: True, "a", analytic_weight=0.25)
        b = Predicate(lambda r: True, "b", analytic_weight=0.5)
        assert (a & b).analytic_weight == pytest.approx(0.125)

    def test_mixed_conjunction_bound_is_min(self, distribution):
        structural = attribute_predicate("zip", "12340")  # weight 1/3
        analytic = Predicate(lambda r: True, "h", analytic_weight=0.01)
        bound = (structural & analytic).weight_bound(distribution)
        assert bound == pytest.approx(0.01)

    @given(bits=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_bit_conjunction_weight(self, bits):
        distribution = uniform_bits_distribution(8)
        predicate = attribute_predicate("b0", 1)
        for i in range(1, bits):
            predicate = predicate & attribute_predicate(f"b{i}", 1)
        assert predicate.weight(distribution) == pytest.approx(0.5**bits)


class TestWeightBound:
    def test_monte_carlo_bound_is_conservative(self, distribution):
        # A non-structural predicate: MC with CP upper bound.
        predicate = Predicate(lambda r: r["age"] == 0, "age==0 (opaque)")
        bound = predicate.weight_bound(distribution, samples=2_000, rng=0)
        assert bound >= 0.01  # true weight
        assert bound <= 0.05

    def test_zero_hits_bound_positive(self, distribution):
        predicate = Predicate(lambda r: False, "never")
        bound = predicate.weight_bound(distribution, samples=1_000, rng=1)
        assert 0.0 < bound < 0.02

    def test_analytic_passthrough(self, distribution):
        predicate = Predicate(lambda r: True, "h", analytic_weight=1e-9)
        assert predicate.weight_bound(distribution) == 1e-9

    def test_invalid_analytic_weight(self):
        with pytest.raises(ValueError):
            Predicate(lambda r: True, "h", analytic_weight=2.0)

    def test_weight_routes_agree_and_structure_is_cheap(self):
        # Three routes to one true weight of 2^-6: a structural conjunction
        # (exact), a hash cut (analytic), and the same conjunction as an
        # opaque function (Monte Carlo with a Clopper-Pearson bound).
        truth = 2.0**-6
        distribution = uniform_bits_distribution(24)
        structural = attribute_predicate("b0", 1)
        for i in range(1, 6):
            structural = structural & attribute_predicate(f"b{i}", 1)
        opaque = Predicate(
            lambda record: all(record[f"b{i}"] == 1 for i in range(6)),
            "opaque 6-bit conjunction",
        )
        analytic = hash_threshold_predicate("weight-routes", truth)

        def measure(predicate, label):
            start = time.perf_counter()
            weight = predicate.weight(distribution, samples=20_000, rng=derive_rng(0, label))
            bound = predicate.weight_bound(
                distribution, samples=20_000, rng=derive_rng(1, label)
            )
            return weight, bound, time.perf_counter() - start

        exact_weight, exact_bound, exact_seconds = measure(structural, "exact")
        analytic_weight, analytic_bound, _ = measure(analytic, "analytic")
        mc_weight, mc_bound, mc_seconds = measure(opaque, "monte-carlo")
        assert exact_weight == pytest.approx(truth, rel=1e-12)
        assert exact_bound == pytest.approx(truth, rel=1e-12)
        assert analytic_weight == pytest.approx(truth, rel=1e-12)
        assert analytic_bound == pytest.approx(truth, rel=1e-12)
        assert mc_weight == pytest.approx(truth, rel=0.5)  # sampling error
        assert mc_bound >= truth  # the CP bound is safe
        assert exact_seconds < mc_seconds  # structure is the cheap path


class TestConditionsHelpers:
    def test_predicate_from_conditions(self, schema, distribution):
        predicate = predicate_from_conditions(
            {"zip": frozenset(["12340"]), "age": frozenset(range(10))}
        )
        assert predicate(Record(schema, ("12340", 5)))
        assert predicate.weight(distribution) == pytest.approx((1 / 3) * 0.1)

    def test_empty_conditions_rejected(self):
        with pytest.raises(ValueError):
            predicate_from_conditions({})
        with pytest.raises(ValueError):
            predicate_from_conditions({"zip": frozenset()})
