"""Tests for the closed-form experiment companions."""

import pytest

from repro.core.analysis import (
    expected_agreement_bits,
    refinement_success_probability,
)


class TestRefinementSuccess:
    def test_known_values(self):
        assert refinement_success_probability(2) == pytest.approx(0.5)
        assert refinement_success_probability(4) == pytest.approx(0.421875)
        assert refinement_success_probability(1) == 1.0

    def test_limit_is_one_over_e(self):
        import math

        assert refinement_success_probability(10_000) == pytest.approx(
            1.0 / math.e, abs=1e-4
        )

    def test_monotone_decreasing(self):
        values = [refinement_success_probability(k) for k in range(2, 30)]
        assert values == sorted(values, reverse=True)

    def test_invalid(self):
        with pytest.raises(ValueError):
            refinement_success_probability(0)


class TestAgreementBits:
    def test_matches_measured_agreement(self):
        """Analytic agreement tracks the anonymizer's actual behavior."""
        from repro.anonymity.agreement import AgreementAnonymizer
        from repro.data.distributions import uniform_bits_distribution

        width, k, n = 96, 4, 200
        data = uniform_bits_distribution(width).sample(n, rng=0)
        release = AgreementAnonymizer(k).anonymize(data)
        agreed = [
            sum(1 for value in record.values if value.is_singleton)
            for record in release
        ]
        measured = sum(agreed) / len(agreed)
        predicted = expected_agreement_bits(width, k, n)
        assert measured == pytest.approx(predicted, rel=0.35)

    def test_wider_data_more_agreement(self):
        assert expected_agreement_bits(256, 4, 200) > expected_agreement_bits(64, 4, 200)

    def test_larger_k_less_agreement(self):
        assert expected_agreement_bits(128, 8, 200) < expected_agreement_bits(128, 3, 200)

    def test_invalid(self):
        with pytest.raises(ValueError):
            expected_agreement_bits(0, 4, 200)
