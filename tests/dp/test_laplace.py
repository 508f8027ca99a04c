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
        generator = np.random.default_rng(0)
        releases = [mechanism.release(100.0, rng=generator) for _ in range(5_000)]
        assert np.mean(releases) == pytest.approx(100.0, abs=0.1)
        assert np.std(releases) == pytest.approx(np.sqrt(2.0), abs=0.1)

    def test_release_deterministic_under_seed(self):
        mechanism = LaplaceMechanism(1.0)
        assert mechanism.release(5.0, rng=3) == mechanism.release(5.0, rng=3)
