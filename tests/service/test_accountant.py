"""Accountant semantics: composition, budgets, all-or-nothing charges."""

import importlib.util

import pytest

from repro.service import BasicAccountant, BudgetExhausted


class TestShimRemoved:
    def test_deprecated_module_is_gone(self):
        # The PR-4 re-export shim finished its deprecation window; the
        # canonical home is repro.privacy.accounting and the old path
        # must no longer resolve.
        assert importlib.util.find_spec("repro.service.accountant") is None


class TestRefund:
    def test_refund_reverses_charge(self):
        accountant = BasicAccountant(per_analyst_epsilon=1.0)
        accountant.charge("a", 2, 0.5)
        accountant.refund("a", 2, 0.5)
        assert accountant.analyst_epsilon("a") == pytest.approx(0.0)
        assert accountant.analyst_queries("a") == 0
        assert accountant.global_spent() == pytest.approx(0.0)
        # The budget is whole again.
        accountant.charge("a", 2, 0.5)

    def test_refund_unknown_analyst_refused(self):
        accountant = BasicAccountant()
        with pytest.raises(ValueError):
            accountant.refund("ghost", 1, 0.5)


class TestBasicAccountant:
    def test_epsilons_add(self):
        accountant = BasicAccountant()
        accountant.charge("a", 4, 0.5)
        accountant.charge("a", 2, 0.25)
        assert accountant.analyst_epsilon("a") == pytest.approx(2.5)
        assert accountant.analyst_queries("a") == 6

    def test_global_is_sum_over_analysts(self):
        accountant = BasicAccountant()
        accountant.charge("a", 2, 1.0)
        accountant.charge("b", 3, 1.0)
        assert accountant.global_spent() == pytest.approx(5.0)

    def test_per_analyst_budget_refuses(self):
        accountant = BasicAccountant(per_analyst_epsilon=1.0)
        accountant.charge("a", 3, 0.25)
        with pytest.raises(BudgetExhausted) as excinfo:
            accountant.charge("a", 2, 0.25)
        assert excinfo.value.scope == "analyst"
        assert excinfo.value.analyst == "a"
        assert excinfo.value.budget == 1.0

    def test_all_or_nothing_leaves_ledger_unchanged(self):
        accountant = BasicAccountant(per_analyst_epsilon=1.0)
        accountant.charge("a", 1, 0.5)
        with pytest.raises(BudgetExhausted):
            accountant.charge("a", 10, 0.5)
        # Nothing from the refused batch was recorded.
        assert accountant.analyst_epsilon("a") == pytest.approx(0.5)
        assert accountant.analyst_queries("a") == 1
        # An exactly-fitting charge still goes through afterwards.
        accountant.charge("a", 1, 0.5)
        assert accountant.analyst_epsilon("a") == pytest.approx(1.0)

    def test_global_budget_spans_analysts(self):
        accountant = BasicAccountant(global_epsilon=1.0)
        accountant.charge("a", 3, 0.25)
        with pytest.raises(BudgetExhausted) as excinfo:
            accountant.charge("b", 2, 0.25)
        assert excinfo.value.scope == "global"
        accountant.charge("b", 1, 0.25)  # exactly fills the global budget

    def test_query_count_budget(self):
        accountant = BasicAccountant(max_queries_per_analyst=5)
        accountant.charge("a", 5, 0.0)
        with pytest.raises(BudgetExhausted) as excinfo:
            accountant.charge("a", 1, 0.0)
        assert excinfo.value.scope == "queries"
        # Other analysts are unaffected.
        accountant.charge("b", 5, 0.0)

    def test_zero_count_is_free(self):
        accountant = BasicAccountant(per_analyst_epsilon=0.1)
        accountant.charge("a", 0, 10.0)
        assert accountant.analyst_epsilon("a") == 0.0

    def test_invalid_parameters_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            BasicAccountant(per_analyst_epsilon=0.0)
        with pytest.raises(ValueError):
            BasicAccountant(per_analyst_epsilon=nan)
        with pytest.raises(ValueError):
            BasicAccountant(global_epsilon=-1.0)
        with pytest.raises(ValueError):
            BasicAccountant(global_epsilon=nan)
        with pytest.raises(ValueError):
            BasicAccountant(max_queries_per_analyst=0)
        with pytest.raises(ValueError):
            BasicAccountant(max_queries_per_analyst=nan)
        accountant = BasicAccountant(global_epsilon=1.0)
        with pytest.raises(ValueError):
            accountant.charge("a", -1, 0.5)
        with pytest.raises(ValueError):
            accountant.charge("a", 1, -0.5)
        # A NaN charge would make every later cap comparison false.
        with pytest.raises(ValueError):
            accountant.charge("a", 1, nan)
        assert accountant.global_spent() == 0.0
        with pytest.raises(BudgetExhausted):
            accountant.charge("b", 100, 0.5)
