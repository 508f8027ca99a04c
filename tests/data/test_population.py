"""Tests for the synthetic population generator (GIC/voter-file stand-in)."""

from collections import Counter

import pytest

from repro.data.population import (
    QUASI_IDENTIFIERS,
    PopulationConfig,
    generate_population,
    gic_release,
    population_distribution,
    population_schema,
    voter_registry,
)


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationConfig(size=1_000, zip_count=50), rng=0)


class TestConfig:
    def test_defaults_valid(self):
        PopulationConfig()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PopulationConfig(size=0)

    def test_invalid_zip_count(self):
        with pytest.raises(ValueError):
            PopulationConfig(zip_count=0)

    def test_invalid_year_range(self):
        with pytest.raises(ValueError):
            PopulationConfig(birth_year_range=(2000, 1990))


class TestSchema:
    def test_roles(self):
        schema = population_schema()
        assert schema.identifiers == ("name",)
        assert schema.quasi_identifiers == QUASI_IDENTIFIERS
        assert schema.sensitive == ("disease",)


class TestGeneration:
    def test_size(self, population):
        assert len(population) == 1_000

    def test_names_are_distinct(self, population):
        names = population.column("name")
        assert len(set(names)) == len(names)

    def test_records_fit_schema(self, population):
        for record in list(population)[:50]:
            population.schema.validate_record(record.values)

    def test_deterministic(self):
        config = PopulationConfig(size=100, zip_count=10)
        a = generate_population(config, rng=7)
        b = generate_population(config, rng=7)
        assert a.rows == b.rows

    def test_qi_uniqueness_is_high(self, population):
        # The Sweeney property the generator is calibrated for.
        assert population.unique_fraction(QUASI_IDENTIFIERS) > 0.9

    def test_single_attributes_not_unique(self, population):
        assert population.unique_fraction(("sex",)) == 0.0

    def test_zip_marginal_is_skewed(self, population):
        counts = Counter(population.column("zip"))
        most = counts.most_common(1)[0][1]
        least = min(counts.values())
        assert most > 3 * least  # Zipf head vs tail


class TestDistribution:
    def test_matches_generator_marginals(self):
        config = PopulationConfig(size=4_000, zip_count=20)
        dist = population_distribution(config)
        data = generate_population(config, rng=1)
        # Sex should be ~uniform in both.
        frequency = data.column("sex").count("F") / len(data)
        assert frequency == pytest.approx(0.5, abs=0.03)
        assert dist.marginals["sex"].probability("F") == pytest.approx(0.5)

    def test_min_entropy_positive(self):
        assert population_distribution().min_entropy() > 20


class TestReleases:
    def test_gic_release_drops_name_only(self, population):
        release = gic_release(population)
        assert "name" not in release.schema
        assert "disease" in release.schema
        assert len(release) == len(population)

    def test_voter_registry_coverage(self, population):
        voters = voter_registry(population, coverage=0.5, rng=2)
        assert len(voters) == 500
        assert set(voters.schema.names) == {"name", *QUASI_IDENTIFIERS}

    def test_voter_registry_full_coverage(self, population):
        voters = voter_registry(population, coverage=1.0, rng=3)
        assert len(voters) == len(population)

    def test_voter_registry_invalid_coverage(self, population):
        with pytest.raises(ValueError):
            voter_registry(population, coverage=0.0)
        with pytest.raises(ValueError):
            voter_registry(population, coverage=1.5)

    def test_voters_are_real_people(self, population):
        voters = voter_registry(population, coverage=0.3, rng=4)
        names = set(population.column("name"))
        assert all(row["name"] in names for row in voters)
