"""Tests for the executable theorem checks (reduced scale).

These are the library's own acceptance tests: every theorem of the paper's
Section 2 must hold at small scale.  Experiments E9–E12 run the same checks
at their own scale, and the golden output digests pin those runs.
"""

import pytest

from repro.core.theorems import (
    check_cohen_singleton_attack,
    check_composition_attack,
    check_count_mechanism_pso_security,
    check_dp_implies_pso_security,
    check_kanonymity_fails_pso,
    check_laplace_is_dp,
)


@pytest.fixture(scope="module")
def count_check():
    return check_count_mechanism_pso_security(trials=60, rng=0)


@pytest.mark.slow
class TestTheoremChecks:
    def test_laplace_is_dp(self):
        check = check_laplace_is_dp(trials=2_000, rng=0)
        assert check.passed
        assert check.theorem == "1.3"

    def test_count_mechanism_secure(self, count_check):
        assert count_check.passed
        assert count_check.results[-1].adversary_name == "identity-reader"
        assert count_check.measurements["identity_success"] >= 0.9

    def test_post_processing_robust(self, count_check):
        (parity,) = [
            r for r in count_check.results if r.mechanism_name.startswith("parity(")
        ]
        assert parity.success.estimate <= parity.n * parity.weight_threshold + 0.03

    def test_composition_attack_wins(self):
        check = check_composition_attack(trials=30, rng=0)
        assert check.passed
        assert check.measurements["num_count_mechanisms"] > 8  # omega(log n)

    def test_dp_prevents_pso(self):
        check = check_dp_implies_pso_security(trials=25, rng=0)
        assert check.passed

    def test_kanonymity_fails(self):
        check = check_kanonymity_fails_pso(trials=60, rng=0)
        assert check.passed

    def test_cohen_singleton(self):
        check = check_cohen_singleton_attack(trials=40, rng=0)
        assert check.passed

    def test_check_rendering(self):
        check = check_laplace_is_dp(trials=1_000, rng=1)
        assert "Theorem 1.3" in str(check)
        assert "PASS" in str(check) or "FAIL" in str(check)

    def test_checks_are_deterministic(self):
        a = check_kanonymity_fails_pso(trials=30, rng=5)
        b = check_kanonymity_fails_pso(trials=30, rng=5)
        assert a.measurements == b.measurements
        assert a.results[0].trials == b.results[0].trials
