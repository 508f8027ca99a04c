"""Integration tests: full pipelines across subsystems.

Each test walks one of the paper's narratives end to end — data generation,
defense, attack, verdict — exercising the public API the way the examples
do.
"""

import pytest

from repro.anonymity import MondrianAnonymizer, is_k_anonymous
from repro.attacks import linkage_attack
from repro.core import (
    KAnonymityMechanism,
    KAnonymityPSOAttacker,
    PSOGame,
)
from repro.core.theorems import TheoremCheck
from repro.data.distributions import ProductDistribution, uniform_bits_schema
from repro.data.domain import CategoricalDomain
from repro.data.population import (
    QUASI_IDENTIFIERS,
    PopulationConfig,
    generate_population,
    gic_release,
    voter_registry,
)
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.legal import legal_corollary_2_1, legal_theorem_2_1
from repro.legal.claims import DerivationError


pytestmark = pytest.mark.slow


class TestSweeneyNarrative:
    """Section 1: redaction fails, k-anonymity stops the unique-match join."""

    def test_redaction_fails_then_kanonymity_blocks_linkage(self):
        population = generate_population(
            PopulationConfig(size=1_500, zip_count=60), rng=0
        )
        release = gic_release(population)
        voters = voter_registry(population, coverage=0.9, rng=1)

        raw_attack = linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=population)
        assert raw_attack.reidentified_rate > 0.7  # redaction alone fails

        anonymized = MondrianAnonymizer(
            k=5, quasi_identifiers=QUASI_IDENTIFIERS
        ).anonymize(release)
        assert is_k_anonymous(anonymized, 5)
        # No unique QI combination survives, so exact-join linkage is dead.
        classes = anonymized.equivalence_classes()
        assert min(len(rows) for rows in classes.values()) >= 1


class TestPsoNarrative:
    """Section 2: the same k-anonymous release fails predicate singling out."""

    def test_kanonymous_yet_pso_broken_yields_legal_theorem(self):
        bits = uniform_bits_schema(96)
        schema = Schema(
            list(bits.attributes)
            + [
                Attribute(
                    "secret", CategoricalDomain(range(40)), AttributeKind.SENSITIVE
                )
            ]
        )
        distribution = ProductDistribution.uniform(schema)

        from repro.anonymity import AgreementAnonymizer

        mechanism = KAnonymityMechanism(AgreementAnonymizer(4), label="agreement")
        game = PSOGame(distribution, 200, mechanism, KAnonymityPSOAttacker("auto"))
        result = game.run(40, rng=2)
        assert result.success.estimate >= 0.8  # k-anonymous but PSO-broken

        # Package the measurement as evidence and derive the legal theorem.
        evidence = TheoremCheck(
            theorem="2.10",
            claim="k-anonymity fails PSO (measured in-line)",
            passed=result.success.estimate >= 0.8,
            measurements={"success": str(result.success)},
        )
        verdict = legal_theorem_2_1(evidence, evidence, evidence)
        assert "GDPR" in verdict.claim.conclusion
        corollary = legal_corollary_2_1(verdict)
        assert "anonymization" in corollary.claim.conclusion

    def test_failed_attack_blocks_the_legal_conclusion(self):
        bad_evidence = TheoremCheck(
            theorem="2.10", claim="attack failed this time", passed=False
        )
        with pytest.raises(DerivationError):
            legal_theorem_2_1(bad_evidence, bad_evidence, bad_evidence)


class TestCensusNarrative:
    """Section 1: tables -> reconstruction -> re-identification."""

    def test_tables_to_reidentification(self):
        from repro.data.censusblocks import (
            CensusConfig,
            commercial_database,
            generate_census,
        )
        from repro.reconstruction import (
            reconstruct_census,
            reidentify,
            tabulate_blocks,
        )

        census = generate_census(CensusConfig(blocks=16, mean_block_size=10), rng=3)
        tables = tabulate_blocks(census)
        reconstruction = reconstruct_census(tables, truth=census)
        assert reconstruction.exact_match_fraction > 0.3

        commercial = commercial_database(census, coverage=0.6, rng=4)
        reid = reidentify(reconstruction, commercial, census)
        assert reid.reidentified_rate > 0.03
        assert reid.precision > 0.2
