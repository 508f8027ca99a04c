"""Tests for the finite-n negligibility and isolation arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.negligible import (
    baseline_isolation_probability,
    isolation_probability,
    negligible_weight_threshold,
    optimal_isolation_weight,
)


class TestIsolationProbability:
    def test_paper_birthday_example(self):
        # n = 365, w = 1/365: the paper computes ~37%.
        probability = isolation_probability(365, 1.0 / 365.0)
        assert probability == pytest.approx(0.37, abs=0.01)

    def test_limit_is_one_over_e(self):
        probability = isolation_probability(10**6, 1e-6)
        assert probability == pytest.approx(float(np.exp(-1)), abs=1e-4)

    def test_weight_zero(self):
        assert isolation_probability(100, 0.0) == 0.0

    def test_weight_one_multirecord(self):
        # Every record matches: never exactly one (for n > 1).
        assert isolation_probability(5, 1.0) == 0.0

    def test_weight_one_single_record(self):
        assert isolation_probability(1, 1.0) == 1.0

    def test_binomial_exactness(self):
        # n*w*(1-w)^(n-1) is exactly Binomial(n, w)(k=1).
        from scipy.stats import binom

        for n, w in [(10, 0.1), (50, 0.02), (365, 1 / 365)]:
            assert isolation_probability(n, w) == pytest.approx(
                float(binom.pmf(1, n, w)), rel=1e-9
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            isolation_probability(0, 0.5)
        with pytest.raises(ValueError):
            isolation_probability(10, -0.1)
        with pytest.raises(ValueError):
            isolation_probability(10, 1.5)

    @given(n=st.integers(2, 10_000), factor=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_optimum_at_one_over_n(self, n, factor):
        # Any weight other than 1/n does no better.
        at_optimum = isolation_probability(n, 1.0 / n)
        off_optimum = isolation_probability(n, factor / n)
        assert off_optimum <= at_optimum + 1e-12


class TestThresholds:
    def test_threshold_below_optimal_weight(self):
        for n in (10, 100, 10_000):
            assert negligible_weight_threshold(n) < optimal_isolation_weight(n)

    def test_default_exponent_is_square(self):
        assert negligible_weight_threshold(100) == pytest.approx(1e-4)

    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            negligible_weight_threshold(100, exponent=1.0)

    def test_baseline_approaches_one_over_e(self):
        assert baseline_isolation_probability(100_000) == pytest.approx(
            float(np.exp(-1)), abs=1e-4
        )

    def test_baseline_decreasing_in_n(self):
        values = [baseline_isolation_probability(n) for n in (2, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            negligible_weight_threshold(0)
        with pytest.raises(ValueError):
            optimal_isolation_weight(-5)
