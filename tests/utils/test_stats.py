"""Tests for binomial estimates and confidence intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    BinomialEstimate,
    clopper_pearson_interval,
    estimate_proportion,
    wilson_interval,
)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lower, upper = wilson_interval(37, 100)
        assert lower <= 0.37 <= upper

    def test_zero_successes(self):
        lower, upper = wilson_interval(0, 50)
        assert lower == 0.0
        assert 0.0 < upper < 0.2

    def test_all_successes(self):
        lower, upper = wilson_interval(50, 50)
        assert upper == 1.0
        assert 0.8 < lower < 1.0

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(370, 1000)
        wide = wilson_interval(37, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(5, 10, confidence=1.5)

    @given(
        successes=st.integers(0, 200),
        extra=st.integers(0, 200),
        confidence=st.floats(0.5, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_are_ordered_and_in_unit_interval(self, successes, extra, confidence):
        trials = successes + extra + 1
        lower, upper = wilson_interval(successes, trials, confidence)
        assert 0.0 <= lower <= upper <= 1.0


class TestClopperPearson:
    def test_is_wider_than_wilson(self):
        cp = clopper_pearson_interval(37, 100)
        w = wilson_interval(37, 100)
        assert cp[0] <= w[0] + 1e-9
        assert cp[1] >= w[1] - 1e-9

    def test_extremes(self):
        lower, upper = clopper_pearson_interval(0, 30)
        assert lower == 0.0
        lower, upper = clopper_pearson_interval(30, 30)
        assert upper == 1.0

    def test_zero_successes_upper_is_rule_of_three(self):
        # At 95%, the CP upper bound with 0/n is ~3/n.
        _lower, upper = clopper_pearson_interval(0, 100, confidence=0.95)
        assert upper == pytest.approx(3.0 / 100.0, rel=0.25)

    @given(successes=st.integers(0, 100), extra=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_contains_point_estimate(self, successes, extra):
        trials = successes + extra + 1
        lower, upper = clopper_pearson_interval(successes, trials)
        assert lower <= successes / trials <= upper


class TestQuantilesMatchScipyStats:
    """``scipy.special``'s quantiles give the bits ``scipy.stats``' ``ppf`` gave.

    The references are the intervals as written with ``norm.ppf`` and
    ``beta.ppf``; ``scipy.stats`` is imported here only, never by the library.
    """

    CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)

    @staticmethod
    def counts():
        for trials in range(1, 61):
            for successes in range(trials + 1):
                yield successes, trials
        for trials in (100, 300, 393, 1000, 5000):
            for successes in np.linspace(0, trials, 26).round().astype(int):
                yield int(successes), trials

    def test_bit_for_bit(self):
        from scipy import stats

        checked = 0
        for confidence in self.CONFIDENCES:
            z = float(stats.norm.ppf(0.5 + confidence / 2.0))
            alpha = 1.0 - confidence
            for s, t in self.counts():
                p_hat = s / t
                denom = 1.0 + z * z / t
                center = (p_hat + z * z / (2 * t)) / denom
                margin = (z / denom) * np.sqrt(p_hat * (1 - p_hat) / t + z * z / (4 * t * t))
                wilson = (max(0.0, center - margin), min(1.0, center + margin))
                lower = 0.0 if s == 0 else float(stats.beta.ppf(alpha / 2, s, t - s + 1))
                upper = 1.0 if s == t else float(stats.beta.ppf(1 - alpha / 2, s + 1, t - s))
                point = (s, t, confidence)
                assert wilson_interval(*point) == wilson, point
                assert clopper_pearson_interval(*point) == (lower, upper), point
                checked += 1
        assert checked == 10_100


class TestEstimateProportion:
    def test_wilson_default(self):
        estimate = estimate_proportion(37, 100)
        assert estimate.estimate == pytest.approx(0.37)
        assert estimate.lower <= 0.37 <= estimate.upper

    def test_clopper_pearson_method(self):
        estimate = estimate_proportion(0, 60, method="clopper-pearson")
        assert estimate.lower == 0.0
        assert estimate.upper > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            estimate_proportion(1, 2, method="bayes")

    def test_contains(self):
        estimate = estimate_proportion(37, 100)
        assert estimate.contains(0.37)
        assert not estimate.contains(0.9)

    def test_str_contains_counts(self):
        assert "(37/100)" in str(estimate_proportion(37, 100))

    def test_invalid_estimate_construction(self):
        with pytest.raises(ValueError):
            BinomialEstimate(successes=5, trials=0, estimate=0, lower=0, upper=0, confidence=0.95)
        with pytest.raises(ValueError):
            BinomialEstimate(successes=5, trials=3, estimate=0, lower=0, upper=0, confidence=0.95)
