"""Tests for the k-anonymity composition (intersection) attack."""

import pytest

from repro.anonymity.mondrian import MondrianAnonymizer
from repro.attacks.intersection import (
    candidate_sensitive_values,
    intersection_attack,
)
from repro.data.dataset import Dataset
from repro.data.population import (
    QUASI_IDENTIFIERS,
    PopulationConfig,
    generate_population,
    gic_release,
)


@pytest.fixture(scope="module")
def world():
    population = gic_release(
        generate_population(PopulationConfig(size=800, zip_count=30), rng=0)
    )
    size = len(population)
    cohort_a = Dataset(population.schema, population.rows[: 3 * size // 4], validate=False)
    cohort_b = Dataset(population.schema, population.rows[size // 4 :], validate=False)
    overlap = Dataset(
        population.schema, population.rows[size // 4 : 3 * size // 4], validate=False
    )
    release_a = MondrianAnonymizer(k=4, quasi_identifiers=QUASI_IDENTIFIERS).anonymize(
        cohort_a
    )
    release_b = MondrianAnonymizer(k=4, quasi_identifiers=QUASI_IDENTIFIERS).anonymize(
        cohort_b
    )
    return overlap, release_a, release_b


class TestCandidateSets:
    def test_truth_is_always_a_candidate(self, world):
        overlap, release_a, _release_b = world
        for victim in list(overlap)[:40]:
            candidates = candidate_sensitive_values(
                release_a, victim, QUASI_IDENTIFIERS, "disease"
            )
            assert victim["disease"] in candidates

    def test_candidates_respect_k(self, world):
        overlap, release_a, _release_b = world
        # A victim present in the release matches a class of >= k rows; the
        # candidate set is nonempty (it may be smaller than k if diseases
        # repeat).
        victim = overlap[0]
        candidates = candidate_sensitive_values(
            release_a, victim, QUASI_IDENTIFIERS, "disease"
        )
        assert len(candidates) >= 1

    def test_unknown_sensitive_rejected(self, world):
        overlap, release_a, _release_b = world
        with pytest.raises(KeyError):
            candidate_sensitive_values(release_a, overlap[0], QUASI_IDENTIFIERS, "height")


class TestIntersectionAttack:
    def test_composition_beats_single_release(self, world):
        overlap, release_a, release_b = world
        result = intersection_attack(
            overlap, release_a, release_b, "disease", QUASI_IDENTIFIERS
        )
        assert result.combined_rate >= result.single_release_rate
        assert result.combined_rate > 0  # composition discloses someone

    def test_disclosures_are_accurate(self, world):
        overlap, release_a, release_b = world
        result = intersection_attack(
            overlap, release_a, release_b, "disease", QUASI_IDENTIFIERS
        )
        # The truth is in both candidate sets, so singleton intersections
        # containing it are correct; accuracy should be high.
        if result.disclosed_combined:
            assert result.accuracy >= 0.9

    def test_same_release_twice_gains_nothing(self, world):
        overlap, release_a, _release_b = world
        result = intersection_attack(
            overlap, release_a, release_a, "disease", QUASI_IDENTIFIERS
        )
        assert result.combined_rate == pytest.approx(
            result.disclosed_a / result.victims
        )

    def test_counts_bounded(self, world):
        overlap, release_a, release_b = world
        result = intersection_attack(
            overlap, release_a, release_b, "disease", QUASI_IDENTIFIERS
        )
        assert result.correct_combined <= result.disclosed_combined <= result.victims

    def test_missing_qis_rejected(self, world):
        overlap, release_a, release_b = world
        victims_no_annotation = overlap.project(["disease"])
        with pytest.raises(ValueError):
            intersection_attack(victims_no_annotation, release_a, release_b, "disease")

    def test_result_string(self, world):
        overlap, release_a, release_b = world
        result = intersection_attack(
            overlap, release_a, release_b, "disease", QUASI_IDENTIFIERS
        )
        assert "composition" in str(result)
