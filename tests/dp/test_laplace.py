"""Tests for the Laplace mechanism."""

import numpy as np
import pytest

from repro.dp.laplace import LaplaceMechanism


class TestLaplaceMechanism:
    def test_scale(self):
        assert LaplaceMechanism(0.5, sensitivity=2.0).scale == pytest.approx(4.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(0.0)
        with pytest.raises(ValueError):
            LaplaceMechanism(1.0, sensitivity=0.0)

    def test_release_is_noisy_but_centered(self):
        mechanism = LaplaceMechanism(1.0)
        releases = mechanism.release_many(100.0, 5_000, rng=0)
        assert np.mean(releases) == pytest.approx(100.0, abs=0.1)
        assert np.std(releases) == pytest.approx(np.sqrt(2.0), abs=0.1)

    def test_release_deterministic_under_seed(self):
        mechanism = LaplaceMechanism(1.0)
        assert mechanism.release(5.0, rng=3) == mechanism.release(5.0, rng=3)

    def test_expected_absolute_error(self):
        mechanism = LaplaceMechanism(2.0)
        releases = mechanism.release_many(0.0, 20_000, rng=1)
        assert np.mean(np.abs(releases)) == pytest.approx(
            mechanism.expected_absolute_error(), rel=0.05
        )

    def test_error_quantile(self):
        mechanism = LaplaceMechanism(1.0)
        bound = mechanism.error_quantile(0.95)
        releases = mechanism.release_many(0.0, 20_000, rng=2)
        within = np.mean(np.abs(releases) <= bound)
        assert within == pytest.approx(0.95, abs=0.01)

    def test_error_quantile_validation(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(1.0).error_quantile(1.0)

    def test_release_many_validation(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(1.0).release_many(0.0, 0)
