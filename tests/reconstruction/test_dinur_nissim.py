"""Tests for the exhaustive reconstruction attack."""

import numpy as np
import pytest

from repro.queries.mechanism import BoundedNoiseAnswerer, ExactAnswerer, LaplaceAnswerer
from repro.reconstruction.dinur_nissim import (
    consistent_candidates,
    exhaustive_reconstruction,
)


class TestExhaustiveReconstruction:
    def test_exact_answers_reconstruct_perfectly(self):
        data = np.random.default_rng(0).integers(0, 2, size=8)
        result = exhaustive_reconstruction(ExactAnswerer(data))
        assert result.agreement_with(data) == 1.0
        assert result.queries_used == 2**8 - 1

    def test_bounded_noise_within_theorem_bound(self):
        rng = np.random.default_rng(1)
        n = 10
        alpha = n / 8.0
        data = rng.integers(0, 2, size=n)
        result = exhaustive_reconstruction(BoundedNoiseAnswerer(data, alpha, rng=rng))
        # Theorem: any consistent candidate is within 4*alpha of the truth.
        assert result.hamming_distance(data) <= 4 * alpha

    def test_oversized_n_rejected(self):
        data = np.zeros(20, dtype=int)
        with pytest.raises(ValueError):
            exhaustive_reconstruction(ExactAnswerer(data))

    def test_unbounded_error_needs_explicit_alpha(self):
        data = np.zeros(6, dtype=int)
        answerer = LaplaceAnswerer(data, epsilon_per_query=1.0, rng=0)
        with pytest.raises(ValueError):
            exhaustive_reconstruction(answerer)

    def test_explicit_alpha_against_laplace(self):
        # With a generous alpha the attack still runs against Laplace noise;
        # it just loses accuracy.  Here n is tiny so alpha=n works.
        data = np.array([1, 0, 1, 0, 1, 0])
        answerer = LaplaceAnswerer(data, epsilon_per_query=5.0, rng=1)
        result = exhaustive_reconstruction(answerer, alpha=3.0)
        assert result.reconstruction.shape == data.shape

    def test_agreement_shape_mismatch(self):
        data = np.zeros(4, dtype=int)
        result = exhaustive_reconstruction(ExactAnswerer(data))
        with pytest.raises(ValueError):
            result.agreement_with(np.zeros(5, dtype=int))


class TestConsistentCandidates:
    def test_exact_answers_give_unique_candidate(self):
        data = np.array([1, 0, 1, 1, 0, 0, 1])
        candidates = consistent_candidates(ExactAnswerer(data))
        assert len(candidates) == 1
        assert np.array_equal(candidates[0], data)

    def test_all_candidates_in_hamming_ball(self):
        rng = np.random.default_rng(4)
        n = 8
        alpha = 1.5
        data = rng.integers(0, 2, size=n)
        candidates = consistent_candidates(
            BoundedNoiseAnswerer(data, alpha, rng=rng), alpha=alpha
        )
        assert candidates  # the truth is always consistent
        for candidate in candidates:
            assert int((candidate != data).sum()) <= 4 * alpha
        # Exact answers leave many consistent candidates at alpha = 1 and 2
        # (25 and 121 on this vector), so the bound is checked beyond the truth.
        data = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        for alpha in (1.0, 2.0):
            candidates = consistent_candidates(ExactAnswerer(data), alpha=alpha)
            assert len(candidates) > 1
            for candidate in candidates:
                assert int((candidate != data).sum()) <= 4 * alpha

    def test_attack_returns_the_first_candidate(self):
        # At alpha = 1 every one-bit flip of the truth is consistent too;
        # the attack returns the first consistent candidate in integer order.
        data = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        candidates = consistent_candidates(ExactAnswerer(data), alpha=1.0)
        assert len(candidates) > 1
        assert not np.array_equal(candidates[0], data)
        result = exhaustive_reconstruction(ExactAnswerer(data), alpha=1.0)
        np.testing.assert_array_equal(result.reconstruction, candidates[0])

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            consistent_candidates(ExactAnswerer(np.zeros(18, dtype=int)))
