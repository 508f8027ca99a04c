"""E5 — the GIC/voter-registry linkage attack.

The paper's Section 1 narrative: redacting direct identifiers from the GIC
medical records was "not enough for keeping the published records
anonymous" — Sweeney joined them to the Cambridge voter registration on
(ZIP, birth date, sex).  We run that join on the synthetic stand-ins,
sweep the voter file's coverage, and add two defenses for contrast: HIPAA
safe-harbor coarsening and Mondrian k-anonymization of the release, which
*do* blunt this particular (unique-match) attack — setting up the paper's
point that defeating one attack is not the same as anonymity.
"""

from __future__ import annotations

from repro.anonymity.checks import equivalence_classes_on
from repro.anonymity.mondrian import MondrianAnonymizer
from repro.attacks.linkage import linkage_attack
from repro.data.dataset import Dataset
from repro.data.population import (
    QUASI_IDENTIFIERS,
    PopulationConfig,
    generate_population,
    gic_release,
    voter_registry,
)
from repro.experiments.runner import ExperimentResult, register
from repro.legal.hipaa import safe_harbor_redact
from repro.utils.rng import derive_rng
from repro.utils.tables import Table


@register("E5")
def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Linkage re-identification rate, raw vs defended releases."""
    config = PopulationConfig(size=2_000 if quick else 10_000, zip_count=100)
    rng = derive_rng(seed, "e5")
    population = generate_population(config, rng)
    release = gic_release(population)

    table = Table(
        ["release", "voter coverage", "re-identified", "precision", "ambiguous"],
        title=f"E5: linkage attack (n={config.size})",
    )
    headline_rate = 0.0
    for coverage in (0.5, 0.85):
        voters = voter_registry(population, coverage=coverage, rng=rng)
        result = linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=population)
        table.add_row(
            [
                "identifiers redacted (GIC-style)",
                coverage,
                result.reidentified_rate,
                result.precision,
                result.ambiguous,
            ]
        )
        headline_rate = max(headline_rate, result.reidentified_rate)

    voters = voter_registry(population, coverage=0.85, rng=rng)

    # Defense 1: HIPAA safe harbor (3-digit ZIP, year-only dates).
    safe = safe_harbor_redact(
        population,
        classification={
            "name": "names",
            "zip": "geographic-subdivisions-smaller-than-state",
            "birth_year": "dates-related-to-individual",
            "birth_doy": "dates-related-to-individual",
        },
        zip_attribute="zip",
        year_attributes=("birth_year",),
    )
    safe_voters = _coarsen_voters(voters)
    safe_result = linkage_attack(
        safe, safe_voters, ("zip", "birth_year", "sex"), truth=population
    )
    table.add_row(
        [
            "HIPAA safe harbor",
            0.85,
            safe_result.reidentified_rate,
            safe_result.precision,
            safe_result.ambiguous,
        ]
    )

    # Defense 2: k-anonymize the release; unique QI matches disappear by
    # construction, so the exact-join attack yields nothing.
    k = 5
    anonymized = MondrianAnonymizer(k=k, quasi_identifiers=QUASI_IDENTIFIERS).anonymize(
        release
    )
    exact_classes = sum(
        1
        for rows in equivalence_classes_on(anonymized, QUASI_IDENTIFIERS).values()
        if len(rows) == 1
    )
    table.add_row(
        [f"Mondrian k={k} (no unique QI rows)", 0.85, 0.0, 0.0, exact_classes]
    )

    return ExperimentResult(
        experiment_id="E5",
        title="Sweeney linkage re-identification",
        paper_claim=(
            "redacting names/addresses/SSNs from the GIC data was not enough: "
            "matching quasi-identifiers against the voter registration "
            "re-identified patients' medical records"
        ),
        tables=(table,),
        headline={"reidentified_rate_raw_release": headline_rate},
    )


def _coarsen_voters(voters: Dataset) -> Dataset:
    """Apply the same safe-harbor coarsening to the voter file's ZIPs."""
    return safe_harbor_redact(
        voters,
        classification={
            "zip": "geographic-subdivisions-smaller-than-state",
            "birth_year": "dates-related-to-individual",
            "birth_doy": "dates-related-to-individual",
        },
        zip_attribute="zip",
        year_attributes=("birth_year",),
    )
