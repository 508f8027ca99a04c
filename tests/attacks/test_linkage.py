"""Tests for the Sweeney linkage attack."""

import pytest

from repro.attacks.linkage import linkage_attack
from repro.data.dataset import Dataset
from repro.data.population import (
    QUASI_IDENTIFIERS,
    PopulationConfig,
    generate_population,
    gic_release,
    voter_registry,
)


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationConfig(size=800, zip_count=40), rng=0)


@pytest.fixture(scope="module")
def release(population):
    return gic_release(population)


class TestLinkageAttack:
    def test_full_coverage_high_recall(self, population, release):
        voters = voter_registry(population, coverage=1.0, rng=1)
        result = linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=population)
        assert result.reidentified_rate > 0.9
        assert result.precision == 1.0  # unique exact matches are always right here

    def test_coverage_caps_recall(self, population, release):
        voters = voter_registry(population, coverage=0.4, rng=2)
        result = linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=population)
        assert result.reidentified_rate <= 0.45

    def test_counts_partition_release(self, population, release):
        voters = voter_registry(population, coverage=0.7, rng=3)
        result = linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=population)
        assert (
            result.attempted + result.ambiguous + result.unmatched
            == result.population
            == len(release)
        )

    def test_coarse_qis_are_ambiguous(self, population, release):
        voters = voter_registry(population, coverage=1.0, rng=4)
        result = linkage_attack(release, voters, ("sex",), truth=population)
        assert result.attempted == 0
        assert result.ambiguous == len(release)

    def test_release_with_identifier_rejected(self, population):
        voters = voter_registry(population, coverage=0.5, rng=5)
        with pytest.raises(ValueError):
            linkage_attack(population, voters, QUASI_IDENTIFIERS, truth=population)

    def test_missing_qi_rejected(self, population, release):
        voters = voter_registry(population, coverage=0.5, rng=6)
        with pytest.raises(KeyError):
            linkage_attack(release, voters, ("height",), truth=population)

    def test_misaligned_truth_rejected(self, population, release):
        voters = voter_registry(population, coverage=0.5, rng=7)
        truncated = Dataset(population.schema, population.rows[:10])
        with pytest.raises(ValueError):
            linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=truncated)

    def test_result_string(self, population, release):
        voters = voter_registry(population, coverage=0.5, rng=8)
        result = linkage_attack(release, voters, QUASI_IDENTIFIERS, truth=population)
        assert "re-identified" in str(result)
