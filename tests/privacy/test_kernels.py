"""Tests for the noise-kernel layer (repro.privacy.kernels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.accounting import PrivacySpend
from repro.privacy.kernels import (
    BoundedExtremesKernel,
    BoundedUniformKernel,
    GaussianKernel,
    GeometricKernel,
    LaplaceKernel,
    MechanismSpec,
    ZeroKernel,
)


class TestZeroKernel:
    def test_scalar_and_vector_are_zero(self):
        kernel = ZeroKernel()
        rng = np.random.default_rng(0)
        assert kernel.sample(rng) == 0.0
        assert np.all(kernel.sample_n(rng, 5) == 0.0)

    def test_consumes_no_randomness(self):
        kernel = ZeroKernel()
        rng = np.random.default_rng(3)
        kernel.sample(rng)
        kernel.sample_n(rng, 100)
        untouched = np.random.default_rng(3)
        assert rng.random() == untouched.random()


class TestLaplaceKernel:
    def test_calibration_theorem_1_3(self):
        assert LaplaceKernel.calibrate(0.5).scale == pytest.approx(2.0)
        assert LaplaceKernel.calibrate(2.0, sensitivity=4.0).scale == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            LaplaceKernel(0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            LaplaceKernel.calibrate(0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            LaplaceKernel.calibrate(float("nan"))
        with pytest.raises(ValueError, match="sensitivity must be positive"):
            LaplaceKernel.calibrate(1.0, sensitivity=-1.0)

    def test_matches_generator_stream(self):
        kernel = LaplaceKernel(1.7)
        assert kernel.sample(np.random.default_rng(5)) == float(
            np.random.default_rng(5).laplace(0.0, 1.7)
        )
        got = kernel.sample_n(np.random.default_rng(5), 9)
        want = np.random.default_rng(5).laplace(0.0, 1.7, size=9)
        assert np.array_equal(got, want)


class TestGaussianKernel:
    def test_classical_calibration(self):
        kernel = GaussianKernel.calibrate(1.0, 1e-5)
        assert kernel.sigma == pytest.approx(np.sqrt(2 * np.log(1.25 / 1e-5)))

    def test_validation(self):
        with pytest.raises(ValueError, match="0 < epsilon <= 1"):
            GaussianKernel.calibrate(2.0, 1e-5)
        with pytest.raises(ValueError, match="delta must lie in"):
            GaussianKernel.calibrate(0.5, 0.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            GaussianKernel(0.0)

    def test_matches_generator_stream(self):
        kernel = GaussianKernel(2.5)
        assert kernel.sample(np.random.default_rng(8)) == float(
            np.random.default_rng(8).normal(0.0, 2.5)
        )
        got = kernel.sample_n(np.random.default_rng(8), (3, 4))
        want = np.random.default_rng(8).normal(0.0, 2.5, size=(3, 4))
        assert np.array_equal(got, want)


class TestGeometricKernel:
    def test_calibration(self):
        for epsilon, sensitivity in [(1.0, 1.0), (0.2, 1.0), (2.0, 1.0), (1.0, 2.0)]:
            kernel = GeometricKernel.calibrate(epsilon, sensitivity)
            assert kernel.p == pytest.approx(1.0 - np.exp(-epsilon / sensitivity))

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            GeometricKernel.calibrate(0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            GeometricKernel.calibrate(float("nan"))
        with pytest.raises(ValueError, match="sensitivity must be positive"):
            GeometricKernel.calibrate(1.0, sensitivity=0)
        with pytest.raises(ValueError, match="p must lie in"):
            GeometricKernel(1.0)

    def test_scalar_matches_interleaved_pair(self):
        # The scalar path draws (positive, negative); the vectorized path
        # must consume the same stream pairwise.
        kernel = GeometricKernel.calibrate(0.8)
        rng = np.random.default_rng(11)
        positive = np.random.default_rng(11).geometric(kernel.p) - 1
        negative_rng = np.random.default_rng(11)
        negative_rng.geometric(kernel.p)
        negative = negative_rng.geometric(kernel.p) - 1
        assert kernel.sample(rng) == float(positive - negative)

    def test_vectorized_matches_scalar_stream(self):
        kernel = GeometricKernel.calibrate(0.8)
        scalar_rng = np.random.default_rng(12)
        scalars = [kernel.sample(scalar_rng) for _ in range(6)]
        vector = kernel.sample_n(np.random.default_rng(12), 6)
        assert np.array_equal(vector, np.array(scalars))

    def test_integer_valued(self):
        draws = GeometricKernel.calibrate(0.5).sample_n(np.random.default_rng(1), 50)
        assert np.array_equal(draws, np.round(draws))


class TestBoundedKernels:
    def test_alpha_zero_consumes_no_randomness(self):
        for kernel in (BoundedUniformKernel(0.0), BoundedExtremesKernel(0.0)):
            rng = np.random.default_rng(7)
            assert kernel.sample(rng) == 0.0
            assert np.all(kernel.sample_n(rng, 8) == 0.0)
            assert rng.random() == np.random.default_rng(7).random()

    def test_uniform_within_bounds(self):
        draws = BoundedUniformKernel(2.0).sample_n(np.random.default_rng(2), 500)
        assert np.all(np.abs(draws) <= 2.0)

    def test_extremes_hit_only_endpoints(self):
        draws = BoundedExtremesKernel(3.0).sample_n(np.random.default_rng(2), 500)
        assert set(np.unique(draws)) == {-3.0, 3.0}

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            BoundedUniformKernel(-1.0)
        with pytest.raises(ValueError):
            BoundedExtremesKernel(-0.5)


class TestMechanismSpec:
    def test_defaults(self):
        spec = MechanismSpec(name="exact", kernel=ZeroKernel())
        assert spec.spend.epsilon == 0.0
        assert spec.sensitivity == 1.0
        assert not spec.dp

    def test_epsilon_per_query(self):
        spec = MechanismSpec(
            name="laplace",
            kernel=LaplaceKernel.calibrate(0.5),
            spend=PrivacySpend(0.5),
            dp=True,
        )
        assert spec.epsilon_per_query == 0.5

    def test_dp_claim_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            MechanismSpec(name="bogus", kernel=ZeroKernel(), dp=True)
        with pytest.raises(ValueError):
            MechanismSpec(
                name="bogus", kernel=ZeroKernel(), spend=PrivacySpend(float("nan")), dp=True
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            MechanismSpec(name="x", kernel=ZeroKernel(), sensitivity=0.0)
        with pytest.raises(ValueError):
            MechanismSpec(name="x", kernel=ZeroKernel(), error_bound=-1.0)

    def test_frozen(self):
        spec = MechanismSpec(name="exact", kernel=ZeroKernel())
        with pytest.raises(AttributeError):
            spec.name = "other"


def _geometric_spread(epsilon: float) -> float:
    """Standard deviation of a difference of two geometric(1 - e^-eps) draws."""
    return float(np.sqrt(2.0 * np.exp(-epsilon)) / (1.0 - np.exp(-epsilon)))


@pytest.mark.parametrize(
    "kernel, spread",
    [
        (GaussianKernel.calibrate(1.0, 1e-5), np.sqrt(2 * np.log(1.25 / 1e-5))),
        (GeometricKernel.calibrate(0.2), _geometric_spread(0.2)),
        (GeometricKernel.calibrate(2.0), _geometric_spread(2.0)),
    ],
    ids=["gaussian", "geometric-eps0.2", "geometric-eps2"],
)
def test_draws_are_centred_with_the_calibrated_spread(kernel, spread):
    draws = kernel.sample_n(np.random.default_rng(0), 20_000)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.05 * spread)
    assert np.std(draws) == pytest.approx(spread, rel=0.05)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    count=st.integers(min_value=1, max_value=32),
)
def test_scalar_loop_equals_vectorized_laplace(seed, scale, count):
    """Property: n scalar draws == one vectorized draw of n, any seed."""
    kernel = LaplaceKernel(scale)
    scalar_rng = np.random.default_rng(seed)
    scalars = np.array([kernel.sample(scalar_rng) for _ in range(count)])
    vector = kernel.sample_n(np.random.default_rng(seed), count)
    assert np.array_equal(scalars, vector)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sigma=st.floats(min_value=1e-3, max_value=1e3),
    count=st.integers(min_value=1, max_value=32),
)
def test_scalar_loop_equals_vectorized_gaussian(seed, sigma, count):
    kernel = GaussianKernel(sigma)
    scalar_rng = np.random.default_rng(seed)
    scalars = np.array([kernel.sample(scalar_rng) for _ in range(count)])
    vector = kernel.sample_n(np.random.default_rng(seed), count)
    assert np.array_equal(scalars, vector)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    epsilon=st.floats(min_value=0.05, max_value=8.0),
    count=st.integers(min_value=1, max_value=32),
)
def test_scalar_loop_equals_vectorized_geometric(seed, epsilon, count):
    kernel = GeometricKernel.calibrate(epsilon)
    scalar_rng = np.random.default_rng(seed)
    scalars = np.array([kernel.sample(scalar_rng) for _ in range(count)])
    vector = kernel.sample_n(np.random.default_rng(seed), count)
    assert np.array_equal(scalars, vector)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.floats(min_value=0.0, max_value=10.0),
    count=st.integers(min_value=1, max_value=32),
)
def test_scalar_loop_equals_vectorized_bounded(seed, alpha, count):
    for kernel in (BoundedUniformKernel(alpha), BoundedExtremesKernel(alpha)):
        scalar_rng = np.random.default_rng(seed)
        scalars = np.array([kernel.sample(scalar_rng) for _ in range(count)])
        vector = kernel.sample_n(np.random.default_rng(seed), count)
        assert np.array_equal(scalars, vector)
