"""Tests for the paper's legal theorems (with pre-computed evidence)."""

import pytest

from repro.core.theorems import TheoremCheck
from repro.legal.claims import DerivationError
from repro.legal.concepts import (
    ARTICLE_29_WP_OPINIONS,
    GDPR_EXCERPTS,
    SinglingOutAnswer,
)
from repro.legal.theorems import (
    differential_privacy_assessment,
    legal_corollary_2_1,
    legal_theorem_2_1,
    our_assessment,
    working_party_comparison,
)


def _check(theorem: str, passed: bool) -> TheoremCheck:
    return TheoremCheck(theorem=theorem, claim="measured", passed=passed)


def _evidence(kanon_passed: bool = True) -> tuple[TheoremCheck, ...]:
    """Evidence for Legal Theorem 2.1's T2.10, T2.10+ and T-fn3 premises."""
    return _check("2.10", kanon_passed), _check("2.10+", True), _check("fn3", True)


class TestLegalTheorem21:
    def test_derivable_from_passed_evidence(self):
        verdict = legal_theorem_2_1(*_evidence())
        assert "fails to prevent singling out" in verdict.claim.conclusion
        assert [p.identifier for p in verdict.premises] == ["T2.10", "T2.10+", "T-fn3"]
        assert all(premise.established for premise in verdict.premises)

    def test_blocked_by_failed_evidence(self):
        with pytest.raises(DerivationError):
            legal_theorem_2_1(*_evidence(kanon_passed=False))

    def test_assumptions_are_carried(self):
        verdict = legal_theorem_2_1(*_evidence())
        identifiers = {assumption.identifier for assumption in verdict.assumptions}
        assert identifiers == {"A1", "A3"}


class TestLegalCorollary21:
    def test_builds_on_theorem(self):
        theorem = legal_theorem_2_1(*_evidence())
        corollary = legal_corollary_2_1(theorem)
        assert "anonymization" in corollary.claim.conclusion
        identifiers = {assumption.identifier for assumption in corollary.assumptions}
        assert "A2" in identifiers


class TestDpAssessment:
    def test_qualified_verdict(self):
        verdict = differential_privacy_assessment(
            _check("2.9", True), _check("1.3", True)
        )
        assert verdict.qualification  # explicitly not a compliance determination
        assert "further analysis" in verdict.claim.conclusion

    def test_blocked_without_dp_evidence(self):
        with pytest.raises(DerivationError):
            differential_privacy_assessment(_check("2.9", False), _check("1.3", True))


class TestWorkingPartyComparison:
    def test_disagreement_surfaced(self):
        table = working_party_comparison().render()
        assert "k-anonymity" in table
        assert "no" in table and "yes" in table

    def test_our_answers_contradict_wp_on_kanon(self):
        ours = {a.technology: a.singling_out_still_a_risk for a in our_assessment()}
        wp = {a.technology: a.singling_out_still_a_risk for a in ARTICLE_29_WP_OPINIONS}
        assert wp["k-anonymity"] is SinglingOutAnswer.NO
        assert ours["k-anonymity"] is SinglingOutAnswer.YES
        assert ours["differential privacy"] is SinglingOutAnswer.NO


class TestConcepts:
    def test_gdpr_excerpts_present(self):
        assert "Recital 26 (singling out)" in GDPR_EXCERPTS
        assert "singling out" in GDPR_EXCERPTS["Recital 26 (singling out)"].text

    def test_excerpts_cite_sources(self):
        for source in GDPR_EXCERPTS.values():
            assert source.identifier
            assert source.role


class TestUsPrivacyExcerpts:
    def test_statutes_present(self):
        from repro.legal.concepts import US_PRIVACY_EXCERPTS

        assert {"Title 13", "HIPAA safe harbor", "FERPA"} <= set(US_PRIVACY_EXCERPTS)
        for source in US_PRIVACY_EXCERPTS.values():
            assert source.identifier and source.text and source.role

    def test_title_13_matches_paper_quote(self):
        from repro.legal.concepts import US_PRIVACY_EXCERPTS

        assert "can be identified" in US_PRIVACY_EXCERPTS["Title 13"].text


class TestLegalTheoremWithFootnote3:
    def test_footnote3_premise_is_measured(self):
        good = _check("x", True)
        verdict = legal_theorem_2_1(good, good, ldiversity_evidence=good)
        (premise,) = [p for p in verdict.premises if p.identifier == "T-fn3"]
        assert premise.evidence is good

    def test_footnote3_failure_blocks(self):
        good = _check("x", True)
        bad = _check("x", False)
        with pytest.raises(DerivationError):
            legal_theorem_2_1(good, good, ldiversity_evidence=bad)
