"""Tests for AboveThreshold (sparse vector technique)."""

import pytest

from repro.core.predicate import attribute_predicate
from repro.data.distributions import uniform_bits_distribution
from repro.dp.sparse_vector import AboveThreshold, sparse_count_queries


class TestAboveThreshold:
    def test_finds_obvious_positive(self):
        mechanism = AboveThreshold(epsilon=4.0, threshold=50.0)
        answers = [0.0, 1.0, 2.0, 100.0, 0.0]
        outcome = mechanism.run(answers, rng=0)
        assert outcome.halted
        assert outcome.index == 3
        assert outcome.queries_processed == 4

    def test_reports_none_when_everything_low(self):
        mechanism = AboveThreshold(epsilon=4.0, threshold=100.0)
        outcome = mechanism.run([0.0] * 20, rng=1)
        assert not outcome.halted
        assert outcome.queries_processed == 20

    def test_noise_can_flip_near_threshold(self):
        mechanism = AboveThreshold(epsilon=0.5, threshold=10.0)
        outcomes = {mechanism.run([9.9], rng=seed).halted for seed in range(40)}
        assert outcomes == {True, False}  # a borderline query is noisy

    def test_max_queries_cap(self):
        mechanism = AboveThreshold(epsilon=4.0, threshold=1e9)

        def infinite():
            while True:
                yield 0.0

        outcome = mechanism.run(infinite(), rng=2, max_queries=17)
        assert outcome.queries_processed == 17
        assert not outcome.halted

    def test_halting_accuracy_at_high_epsilon(self):
        mechanism = AboveThreshold(epsilon=20.0, threshold=50.0)
        answers = [10.0] * 9 + [90.0]
        hits = sum(
            mechanism.run(answers, rng=seed).index == 9 for seed in range(50)
        )
        assert hits >= 45

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AboveThreshold(epsilon=0.0, threshold=1.0)
        with pytest.raises(ValueError):
            AboveThreshold(epsilon=1.0, threshold=1.0, sensitivity=0.0)


class TestSparseCountQueries:
    def test_over_dataset(self):
        distribution = uniform_bits_distribution(8)
        data = distribution.sample(200, rng=0)
        predicates = [
            attribute_predicate("b0", 1) & attribute_predicate("b1", 1)
            & attribute_predicate("b2", 1),  # ~25 matches
            attribute_predicate("b0", {0, 1}),  # all 200 match
        ]
        outcome = sparse_count_queries(
            data, predicates, epsilon=4.0, threshold=150.0, rng=1
        )
        assert outcome.halted
        assert outcome.index == 1
