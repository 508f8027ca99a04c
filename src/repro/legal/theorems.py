"""The paper's legal theorems, derived from measured technical premises.

Section 2.4's outputs:

* **Legal Theorem 2.1** — k-anonymity (and its variants) fails to prevent
  singling out as required by the GDPR;
* **Legal Corollary 2.1** — hence k-anonymity does not meet the GDPR
  anonymization standard;
* the **differential privacy assessment** — DP passes the necessary
  condition; compliance would need further analysis (deliberately *not* a
  theorem);
* the **Article 29 Working Party comparison** (Section 2.4.3) — where the
  analysis disagrees with the 2014 Opinion on Anonymisation Techniques.
"""

from __future__ import annotations

from repro.core.theorems import TheoremCheck
from repro.legal.claims import (
    LegalClaim,
    LegalVerdict,
    ModelingAssumption,
    TechnicalPremise,
    derive,
)
from repro.legal.concepts import (
    ARTICLE_29_WP_OPINIONS,
    SinglingOutAnswer,
    WorkingPartyAssessment,
)
from repro.utils.tables import Table

#: A1: the paper's central modeling step (Section 2.2).
ASSUMPTION_PSO_NECESSARY = ModelingAssumption(
    identifier="A1",
    statement=(
        "Security against predicate singling out (PSO) is a weaker-or-equal "
        "requirement than the GDPR's 'prevent singling out'; hence failing "
        "PSO security implies failing the GDPR requirement, while satisfying "
        "it is only a necessary condition."
    ),
    source="GDPR Recital 26; Article 29 WP Opinion 04/2007",
)

#: A2: preventing singling out is necessary for the anonymization exception.
ASSUMPTION_SINGLING_OUT_NECESSARY = ModelingAssumption(
    identifier="A2",
    statement=(
        "Preventing singling out is necessary (though possibly insufficient) "
        "for personal data to count as 'rendered anonymous' under Recital 26."
    ),
    source="GDPR Recital 26",
)

#: A3: the footnote-3 extension to k-anonymity's variants.
ASSUMPTION_VARIANTS = ModelingAssumption(
    identifier="A3",
    statement=(
        "The PSO analysis of k-anonymity applies unchanged to its variants "
        "l-diversity and t-closeness, whose outputs are also partitioned "
        "into equivalence classes of generalized records."
    ),
    source="paper footnote 3; [28, 29]",
)


def legal_theorem_2_1(
    kanon_evidence: TheoremCheck,
    cohen_evidence: TheoremCheck,
    ldiversity_evidence: TheoremCheck,
) -> LegalVerdict:
    """Legal Theorem 2.1: k-anonymity fails to prevent GDPR singling out.

    The evidence is the Theorem 2.10, Cohen and footnote-3 checks of
    :mod:`repro.core.theorems`.  The footnote-3 premise makes the extension
    to l-diversity rest on a measurement; assumption A3 carries it on to
    t-closeness.
    """
    premises = [
        TechnicalPremise(
            identifier="T2.10",
            statement=(
                "Information-optimizing k-anonymizers admit a PSO attack "
                "succeeding with probability ~37% (measured)"
            ),
            evidence=kanon_evidence,
        ),
        TechnicalPremise(
            identifier="T2.10+",
            statement=(
                "Generalization-based k-anonymizers admit a PSO attack "
                "succeeding with probability ~100% (Cohen [12], measured)"
            ),
            evidence=cohen_evidence,
        ),
        TechnicalPremise(
            identifier="T-fn3",
            statement=(
                "Releases that are simultaneously k-anonymous and "
                "distinct-l-diverse admit the same PSO attack (measured)"
            ),
            evidence=ldiversity_evidence,
        ),
    ]
    claim = LegalClaim(
        identifier="Legal Theorem 2.1",
        conclusion=(
            "k-anonymity (similarly, l-diversity and t-closeness) fails to "
            "prevent singling out as required by the GDPR."
        ),
        rule=(
            "T2.10 (and T2.10+) show k-anonymity fails PSO security, and "
            "T-fn3 shows l-diverse releases fail it too; by A1, failing the "
            "weaker PSO requirement implies failing the GDPR requirement; A3 "
            "extends the construction to the other variants."
        ),
    )
    return derive(
        claim,
        [ASSUMPTION_PSO_NECESSARY, ASSUMPTION_VARIANTS],
        premises,
    )


def legal_corollary_2_1(theorem: LegalVerdict) -> LegalVerdict:
    """Legal Corollary 2.1: k-anonymity does not meet the GDPR anonymization standard."""
    claim = LegalClaim(
        identifier="Legal Corollary 2.1",
        conclusion=(
            "k-anonymity (similarly, l-diversity and t-closeness) does not "
            "meet the GDPR standard for anonymization."
        ),
        rule=(
            "Legal Theorem 2.1 establishes failure to prevent singling out; "
            "by A2, preventing singling out is necessary for the Recital 26 "
            "anonymization exception."
        ),
    )
    return derive(
        claim,
        [*theorem.assumptions, ASSUMPTION_SINGLING_OUT_NECESSARY],
        list(theorem.premises),
    )


def differential_privacy_assessment(
    dp_evidence: TheoremCheck, laplace_evidence: TheoremCheck
) -> LegalVerdict:
    """Section 2.4.1: DP satisfies the *necessary* condition — no more.

    The evidence is the Theorem 2.9 and Theorem 1.3 checks of
    :mod:`repro.core.theorems`.  Deliberately qualified: the paper stresses
    that preventing (even full) singling out is necessary but not
    sufficient for the GDPR anonymization standard, so no compliance
    theorem is derivable.
    """
    premises = [
        TechnicalPremise(
            identifier="T1.3",
            statement="The Laplace mechanism is epsilon-DP (verified empirically)",
            evidence=laplace_evidence,
        ),
        TechnicalPremise(
            identifier="T2.9",
            statement=(
                "epsilon-DP mechanisms prevent predicate singling out "
                "(measured: the composition attack collapses under DP)"
            ),
            evidence=dp_evidence,
        ),
    ]
    claim = LegalClaim(
        identifier="DP assessment (Section 2.4.1)",
        conclusion=(
            "Differential privacy satisfies the necessary condition of "
            "preventing (predicate) singling out; whether it meets the GDPR "
            "anonymization standard requires further analysis."
        ),
        rule=(
            "T2.9 establishes PSO security; by A1 this meets the weakened "
            "necessary condition only — sufficiency is not derivable from "
            "singling out alone (Recital 26 lists it as one of the 'means "
            "reasonably likely to be used')."
        ),
    )
    return derive(
        claim,
        [ASSUMPTION_PSO_NECESSARY, ASSUMPTION_SINGLING_OUT_NECESSARY],
        premises,
        qualification="necessary condition only; not a compliance determination",
    )


def our_assessment() -> tuple[WorkingPartyAssessment, ...]:
    """This analysis's answers to "Is singling out still a risk?"."""
    return (
        WorkingPartyAssessment("k-anonymity", SinglingOutAnswer.YES),
        WorkingPartyAssessment("l-diversity", SinglingOutAnswer.YES),
        WorkingPartyAssessment("differential privacy", SinglingOutAnswer.NO),
    )


def working_party_comparison() -> Table:
    """Section 2.4.3's comparison with the Article 29 WP opinion, as a table.

    The conflict — the WP says k-anonymity eliminates singling-out risk
    while the measured attacks isolate with probability 37-100% — is the
    paper's argument that such assessments must be mathematically
    falsifiable.
    """
    ours = {assessment.technology: assessment for assessment in our_assessment()}
    table = Table(
        ["technology", "Art. 29 WP (2014)", "this analysis (measured)"],
        title='"Is singling out still a risk?"',
    )
    for wp_row in ARTICLE_29_WP_OPINIONS:
        table.add_row(
            [
                wp_row.technology,
                wp_row.singling_out_still_a_risk.value,
                ours[wp_row.technology].singling_out_still_a_risk.value,
            ]
        )
    return table
