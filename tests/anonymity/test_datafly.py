"""Tests for the Datafly-style full-domain generalizer."""

import pytest

from repro.anonymity.checks import is_k_anonymous
from repro.anonymity.datafly import DataflyAnonymizer
from repro.data.dataset import Dataset
from repro.data.population import PopulationConfig, generate_population, gic_release


@pytest.fixture(scope="module")
def release_input():
    population = generate_population(PopulationConfig(size=400, zip_count=20), rng=1)
    return gic_release(population)


@pytest.fixture(scope="module")
def raw_disease_input():
    # Datafly keeps the sensitive ``disease`` column raw, so whole released
    # rows split an equivalence class; k-anonymity groups on the
    # quasi-identifiers only (smallest whole-row class here: 1).
    population = generate_population(PopulationConfig(size=300, zip_count=15), rng=2)
    return gic_release(population)


class TestDatafly:
    @pytest.mark.parametrize("k", [2, 5])
    def test_output_is_k_anonymous(self, release_input, raw_disease_input, k):
        for source in (release_input, raw_disease_input):
            release = DataflyAnonymizer(k=k).anonymize(source)
            assert is_k_anonymous(release, k)

    def test_suppression_within_budget(self, release_input):
        anonymizer = DataflyAnonymizer(k=5, max_suppression=0.05)
        release = anonymizer.anonymize(release_input)
        assert release.suppressed_count <= 0.05 * len(release_input)

    def test_consistency_with_source(self, release_input):
        release = DataflyAnonymizer(k=3).anonymize(release_input)
        assert release.is_consistent_with(release_input)

    def test_full_domain_property(self, release_input):
        # Full-domain generalization: within an attribute, all released
        # cover sets at the chosen level have the same structure (same
        # level), so distinct raw values map to nested-or-disjoint covers.
        anonymizer = DataflyAnonymizer(k=5)
        release = anonymizer.anonymize(release_input)
        levels = anonymizer.last_levels
        assert set(levels) == set(release_input.schema.quasi_identifiers)
        covers = {record["birth_year"].covers for record in release}
        for a in covers:
            for b in covers:
                assert a == b or not (a & b)  # disjoint cells at one level

    def test_sensitive_attribute_untouched(self, release_input):
        release = DataflyAnonymizer(k=5).anonymize(release_input)
        assert all(record["disease"].is_singleton for record in release)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DataflyAnonymizer(k=0)
        with pytest.raises(ValueError):
            DataflyAnonymizer(k=2, max_suppression=1.0)

    def test_too_few_records(self, release_input):
        tiny = Dataset(release_input.schema, release_input.rows[:2], validate=False)
        with pytest.raises(ValueError):
            DataflyAnonymizer(k=5).anonymize(tiny)

    def test_empty_dataset(self, release_input):
        empty = Dataset(release_input.schema, [], validate=False)
        assert len(DataflyAnonymizer(k=5).anonymize(empty)) == 0

    def test_levels_recorded(self, release_input):
        anonymizer = DataflyAnonymizer(k=5)
        anonymizer.anonymize(release_input)
        assert all(level >= 0 for level in anonymizer.last_levels.values())
