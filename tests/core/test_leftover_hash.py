"""Tests for hash-based negligible-weight predicates."""

import pytest

from repro.core.leftover_hash import (
    RecordHasher,
    hash_bit_equals_predicate,
    hash_bit_predicate,
    hash_threshold_predicate,
)
from repro.data.distributions import uniform_bits_distribution


@pytest.fixture(scope="module")
def distribution():
    return uniform_bits_distribution(48)


class TestRecordHasher:
    def test_deterministic(self, distribution):
        record = distribution.sample(1, rng=0)[0]
        hasher = RecordHasher("salt")
        assert hasher.unit(record) == hasher.unit(record)
        assert hasher.bit(record, 7) == hasher.bit(record, 7)

    def test_salts_give_different_functions(self, distribution):
        records = list(distribution.sample(32, rng=0))
        a = [RecordHasher("salt-a").bit(r, 0) for r in records]
        b = [RecordHasher("salt-b").bit(r, 0) for r in records]
        assert a != b  # astronomically unlikely to collide on 32 records

    def test_unit_in_interval(self, distribution):
        hasher = RecordHasher("x")
        for record in distribution.sample(20, rng=0):
            assert 0.0 <= hasher.unit(record) < 1.0

    def test_empty_salt_rejected(self):
        with pytest.raises(ValueError):
            RecordHasher("")

    def test_bit_index_validated(self, distribution):
        hasher = RecordHasher("x")
        record = distribution.sample(1, rng=0)[0]
        with pytest.raises(ValueError):
            hasher.bit(record, 192)
        with pytest.raises(ValueError):
            hasher.bit(record, -1)


class TestHashThresholdPredicate:
    def test_analytic_weight_recorded(self):
        predicate = hash_threshold_predicate("s", 0.01)
        assert predicate.analytic_weight == 0.01

    def test_empirical_weight_matches_analytic(self, distribution):
        predicate = hash_threshold_predicate("s2", 0.25)
        data = distribution.sample(8_000, rng=0)
        frequency = data.count(predicate) / len(data)
        assert frequency == pytest.approx(0.25, abs=0.02)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            hash_threshold_predicate("s", 0.0)
        with pytest.raises(ValueError):
            hash_threshold_predicate("s", 1.5)


class TestHashBitPredicates:
    def test_bit_weight_is_half(self, distribution):
        predicate = hash_bit_predicate("s3", 5)
        data = distribution.sample(8_000, rng=1)
        frequency = data.count(predicate) / len(data)
        assert frequency == pytest.approx(0.5, abs=0.03)

    def test_bit_equals_complement(self, distribution):
        ones = hash_bit_equals_predicate("s4", 3, 1)
        zeros = hash_bit_equals_predicate("s4", 3, 0)
        record = distribution.sample(1, rng=2)[0]
        assert ones(record) != zeros(record)

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            hash_bit_equals_predicate("s", 0, 2)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            hash_bit_predicate("s", 500)

    def test_threshold_and_high_bits_independent(self, distribution):
        # Conjunction of a threshold cut and a bit from a different salt
        # should have roughly the product weight.
        predicate = hash_threshold_predicate("s5", 0.5) & hash_bit_predicate("s6", 0)
        data = distribution.sample(8_000, rng=3)
        frequency = data.count(predicate) / len(data)
        assert frequency == pytest.approx(0.25, abs=0.03)
        assert predicate.analytic_weight == pytest.approx(0.25)
