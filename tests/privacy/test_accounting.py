"""Tests for the privacy ledgers (repro.privacy.accounting)."""

import pytest

from repro.privacy.accounting import (
    BasicAccountant,
    BudgetExhausted,
    PrivacyAccountant,
    PrivacySpend,
)


class TestReserveRollback:
    def test_reserve_is_all_or_nothing(self):
        ledger = PrivacyAccountant(epsilon_budget=1.0)
        with pytest.raises(BudgetExhausted):
            ledger.reserve(5, 0.3)
        # The refused charge left no trace.
        assert ledger.queries_charged == 0
        assert ledger.total() == (0.0, 0.0)

    def test_rollback_restores_budget(self):
        ledger = PrivacyAccountant(epsilon_budget=1.0)
        ledger.reserve(3, 0.3)
        ledger.rollback(3, 0.3)
        assert ledger.queries_charged == 0
        ledger.reserve(3, 0.3)  # fits again

    def test_rollback_requires_matching_charges(self):
        ledger = PrivacyAccountant()
        ledger.reserve(2, 0.1)
        with pytest.raises(ValueError, match="cannot roll back"):
            ledger.rollback(3, 0.1)
        with pytest.raises(ValueError, match="cannot roll back"):
            ledger.rollback(1, 0.7)

    def test_scope_on_refusals(self):
        by_queries = PrivacyAccountant(max_queries=2)
        with pytest.raises(BudgetExhausted) as caught:
            by_queries.reserve(3, 0.1)
        assert caught.value.scope == "queries"

        by_epsilon = PrivacyAccountant(epsilon_budget=0.5)
        with pytest.raises(BudgetExhausted) as caught:
            by_epsilon.reserve(1, 0.6)
        assert caught.value.scope == "epsilon"

        by_delta = PrivacyAccountant(delta_budget=1e-6)
        with pytest.raises(BudgetExhausted) as caught:
            by_delta.reserve(1, 0.1, delta=1e-3)
        assert caught.value.scope == "delta"

    def test_budget_exhausted_carries_numbers(self):
        ledger = PrivacyAccountant(epsilon_budget=1.0)
        ledger.reserve(1, 0.8)
        with pytest.raises(BudgetExhausted) as caught:
            ledger.reserve(1, 0.8)
        refusal = caught.value
        assert refusal.budget == 1.0
        assert refusal.requested == pytest.approx(0.8)
        assert refusal.spent == pytest.approx(0.8)


class TestServiceAccountantUnification:
    def test_service_accountant_is_a_privacy_accountant(self):
        assert issubclass(BasicAccountant, PrivacyAccountant)
        assert isinstance(BasicAccountant(), PrivacyAccountant)

    def test_charges_mirror_into_base_ledger(self):
        accountant = BasicAccountant()
        accountant.charge("alice", 4, 0.25)
        accountant.charge("bob", 2, 0.5)
        # The inherited PrivacyAccountant interface sees the global history.
        assert accountant.queries_charged == 6
        epsilon, delta = accountant.total()
        assert epsilon == pytest.approx(4 * 0.25 + 2 * 0.5)
        assert delta == 0.0

    def test_per_analyst_isolation(self):
        accountant = BasicAccountant(per_analyst_epsilon=1.0)
        accountant.charge("alice", 4, 0.25)
        with pytest.raises(BudgetExhausted) as caught:
            accountant.charge("alice", 1, 0.25)
        assert caught.value.analyst == "alice"
        # Bob's ledger is untouched by Alice's exhaustion.
        accountant.charge("bob", 4, 0.25)
        assert accountant.analyst_epsilon("alice") == pytest.approx(1.0)
        assert accountant.analyst_epsilon("bob") == pytest.approx(1.0)

    def test_global_budget_rolls_back_analyst_ledger(self):
        accountant = BasicAccountant(global_epsilon=1.0)
        accountant.charge("alice", 3, 0.25)
        with pytest.raises(BudgetExhausted) as caught:
            accountant.charge("bob", 2, 0.25)
        assert caught.value.scope == "global"
        # The refused charge must not linger in bob's sub-ledger.
        assert accountant.analyst_queries("bob") == 0
        assert accountant.global_spent() == pytest.approx(0.75)

    def test_zero_epsilon_queries_still_counted(self):
        accountant = BasicAccountant(max_queries_per_analyst=3)
        accountant.charge("alice", 3, 0.0)
        assert accountant.analyst_epsilon("alice") == 0.0
        with pytest.raises(BudgetExhausted) as caught:
            accountant.charge("alice", 1, 0.0)
        assert caught.value.scope == "queries"


class TestSpendValidation:
    def test_spend_validation(self):
        with pytest.raises(ValueError):
            PrivacySpend(-0.1)
        with pytest.raises(ValueError):
            PrivacySpend(float("nan"))
        with pytest.raises(ValueError):
            PrivacySpend(0.5, delta=1.0)

    def test_accountant_validation(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="epsilon_budget"):
            PrivacyAccountant(epsilon_budget=0.0)
        with pytest.raises(ValueError, match="epsilon_budget"):
            PrivacyAccountant(epsilon_budget=nan)
        with pytest.raises(ValueError, match="delta_budget"):
            PrivacyAccountant(delta_budget=1.0)
        with pytest.raises(ValueError, match="delta_budget"):
            PrivacyAccountant(delta_budget=nan)
        with pytest.raises(ValueError, match="max_queries"):
            PrivacyAccountant(max_queries=0)
        with pytest.raises(ValueError, match="max_queries"):
            PrivacyAccountant(max_queries=nan)
        # A NaN charge would turn every later budget comparison false.
        ledger = PrivacyAccountant(epsilon_budget=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            ledger.reserve(1, nan)
        assert ledger.total() == (0.0, 0.0)
