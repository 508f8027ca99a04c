"""Tests for the Gaussian and exponential mechanisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.exponential import ExponentialMechanism
from repro.privacy.kernels import GaussianKernel


class TestGaussianMechanism:
    """The Gaussian mechanism's noise is ``GaussianKernel.calibrate``."""

    def test_sigma_formula(self):
        for epsilon, delta, sensitivity in [(1.0, 1e-5, 1.0), (0.5, 1e-5, 2.0)]:
            kernel = GaussianKernel.calibrate(epsilon, delta, sensitivity=sensitivity)
            expected = sensitivity * np.sqrt(2 * np.log(1.25 / delta)) / epsilon
            assert kernel.sigma == pytest.approx(expected)

    def test_smaller_delta_more_noise(self):
        loose = GaussianKernel.calibrate(1.0, 1e-3)
        tight = GaussianKernel.calibrate(1.0, 1e-9)
        assert tight.sigma > loose.sigma

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianKernel.calibrate(2.0, 1e-5)  # classical calibration needs eps <= 1
        with pytest.raises(ValueError):
            GaussianKernel.calibrate(0.5, 0.0)
        with pytest.raises(ValueError):
            GaussianKernel.calibrate(0.5, 1e-5, sensitivity=0.0)


class TestExponentialMechanism:
    def test_probabilities_favor_high_scores(self):
        mechanism = ExponentialMechanism(2.0)
        probabilities = mechanism.selection_probabilities([0.0, 5.0, 1.0])
        assert probabilities[1] == max(probabilities)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_zero_epsilon_limit_rejected(self):
        with pytest.raises(ValueError):
            ExponentialMechanism(0.0)

    def test_select_concentrates(self):
        mechanism = ExponentialMechanism(8.0)
        rng = np.random.default_rng(0)
        picks = [
            mechanism.select(["a", "b"], lambda c: {"a": 0.0, "b": 10.0}[c], rng)
            for _ in range(200)
        ]
        assert picks.count("b") > 195

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            ExponentialMechanism(1.0).select([], lambda c: 0.0)

    def test_numerical_stability_with_huge_scores(self):
        mechanism = ExponentialMechanism(1.0)
        probabilities = mechanism.selection_probabilities([1e6, 1e6 + 1])
        assert np.isfinite(probabilities).all()

    @given(scores=st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_form_distribution(self, scores):
        probabilities = ExponentialMechanism(1.0).selection_probabilities(scores)
        assert probabilities.sum() == pytest.approx(1.0)
        assert (probabilities >= 0).all()
