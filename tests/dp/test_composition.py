"""Tests for the privacy accountant and composition bounds."""

import importlib.util

import pytest

from repro.privacy.accounting import (
    PrivacyAccountant,
    PrivacySpend,
    advanced_composition,
)


class TestShimRemoved:
    def test_deprecated_module_is_gone(self):
        # The PR-4 re-export shim finished its deprecation window; the
        # canonical home is repro.privacy.accounting and the old path
        # must no longer resolve.
        assert importlib.util.find_spec("repro.dp.composition") is None


class TestBasicComposition:
    def test_sums(self):
        accountant = PrivacyAccountant(delta_budget=1e-5)
        accountant.reserve(1, 0.5)
        accountant.reserve(1, 0.3, delta=1e-6)
        epsilon, delta = accountant.total()
        assert epsilon == pytest.approx(0.8)
        assert delta == pytest.approx(1e-6)

    def test_empty(self):
        assert PrivacyAccountant().total() == (0.0, 0.0)

    def test_invalid_spend(self):
        with pytest.raises(ValueError):
            PrivacySpend(-0.1)
        with pytest.raises(ValueError):
            PrivacySpend(float("nan"))
        with pytest.raises(ValueError):
            PrivacySpend(0.1, delta=1.0)


class TestAdvancedComposition:
    def test_beats_basic_for_many_queries(self):
        epsilon, _delta = advanced_composition(0.1, k=1_000, delta_prime=1e-6)
        assert epsilon < 0.1 * 1_000  # sqrt(k) scaling wins

    def test_formula_components(self):
        import numpy as np

        epsilon, delta = advanced_composition(0.5, k=10, delta_prime=1e-5)
        expected = np.sqrt(2 * 10 * np.log(1e5)) * 0.5 + 10 * 0.5 * (np.e**0.5 - 1)
        assert epsilon == pytest.approx(expected)
        assert delta == 1e-5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            advanced_composition(0.0, 10, 1e-6)
        with pytest.raises(ValueError):
            advanced_composition(float("nan"), 10, 1e-6)
        with pytest.raises(ValueError):
            advanced_composition(0.1, 0, 1e-6)
        with pytest.raises(ValueError):
            advanced_composition(0.1, 10, 0.0)


class TestPrivacyAccountant:
    def test_tracks_total(self):
        accountant = PrivacyAccountant()
        accountant.reserve(1, 0.2)
        accountant.reserve(1, 0.3)
        assert accountant.total() == (pytest.approx(0.5), 0.0)
        assert accountant.queries_charged == 2

    def test_budget_enforced(self):
        accountant = PrivacyAccountant(epsilon_budget=0.5)
        accountant.reserve(1, 0.4)
        with pytest.raises(RuntimeError):
            accountant.reserve(1, 0.2)
        # The failed charge must not have been recorded.
        assert accountant.total()[0] == pytest.approx(0.4)

    def test_delta_budget_enforced(self):
        accountant = PrivacyAccountant(delta_budget=1e-6)
        with pytest.raises(RuntimeError):
            accountant.reserve(1, 0.1, delta=1e-5)

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(epsilon_budget=0.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(epsilon_budget=float("nan"))
        with pytest.raises(ValueError):
            PrivacyAccountant(delta_budget=1.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(delta_budget=float("nan"))
