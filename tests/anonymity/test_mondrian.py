"""Tests for the Mondrian k-anonymizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymity.checks import is_k_anonymous
from repro.anonymity.mondrian import MondrianAnonymizer
from repro.data.dataset import Dataset
from repro.data.distributions import uniform_bits_distribution
from repro.data.domain import IntegerDomain
from repro.data.population import PopulationConfig, generate_population, gic_release
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture(scope="module")
def release_input():
    population = generate_population(PopulationConfig(size=300, zip_count=20), rng=0)
    return gic_release(population)


@pytest.fixture(scope="module")
def raw_disease_input():
    # Mondrian keeps the sensitive ``disease`` column raw, so whole released
    # rows split an equivalence class; k-anonymity groups on the
    # quasi-identifiers only (smallest whole-row class here: 1).
    population = generate_population(PopulationConfig(size=300, zip_count=15), rng=2)
    return gic_release(population)


class TestMondrianInvariants:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_output_is_k_anonymous(self, release_input, raw_disease_input, k):
        for source in (release_input, raw_disease_input):
            release = MondrianAnonymizer(k=k).anonymize(source)
            assert is_k_anonymous(release, k)

    def test_row_order_preserved(self, release_input):
        release = MondrianAnonymizer(k=5).anonymize(release_input)
        assert release.is_consistent_with(release_input)

    def test_no_suppression(self, release_input):
        release = MondrianAnonymizer(k=5).anonymize(release_input)
        assert release.suppressed_count == 0
        assert len(release) == len(release_input)

    def test_sensitive_attributes_stay_raw(self, release_input):
        release = MondrianAnonymizer(k=5).anonymize(release_input)
        assert all(record["disease"].is_singleton for record in release)

    def test_smaller_k_gives_more_classes(self, release_input):
        fine = MondrianAnonymizer(k=2).anonymize(release_input)
        coarse = MondrianAnonymizer(k=20).anonymize(release_input)
        assert len(fine.equivalence_classes()) > len(coarse.equivalence_classes())


class TestMondrianEdgeCases:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MondrianAnonymizer(k=0)

    def test_too_few_records(self, release_input):
        tiny = Dataset(release_input.schema, release_input.rows[:3], validate=False)
        with pytest.raises(ValueError):
            MondrianAnonymizer(k=5).anonymize(tiny)

    def test_empty_dataset(self, release_input):
        empty = Dataset(release_input.schema, [], validate=False)
        release = MondrianAnonymizer(k=5).anonymize(empty)
        assert len(release) == 0

    def test_no_quasi_identifiers_rejected(self):
        schema = Schema([Attribute("x", IntegerDomain(0, 9))])
        data = Dataset(schema, [(i % 10,) for i in range(20)])
        with pytest.raises(ValueError):
            MondrianAnonymizer(k=2).anonymize(data)

    def test_explicit_quasi_identifiers(self, release_input):
        release = MondrianAnonymizer(k=5, quasi_identifiers=["zip", "sex"]).anonymize(
            release_input
        )
        assert is_k_anonymous(release, 5, ["zip", "sex"])
        # birth_year was not generalized.
        assert all(record["birth_year"].is_singleton for record in release)

    def test_unknown_quasi_identifier(self, release_input):
        with pytest.raises(KeyError):
            MondrianAnonymizer(k=5, quasi_identifiers=["height"]).anonymize(release_input)

    def test_identical_records_cannot_split(self):
        schema = Schema(
            [Attribute("x", IntegerDomain(0, 9), AttributeKind.QUASI_IDENTIFIER)]
        )
        data = Dataset(schema, [(5,)] * 10)
        release = MondrianAnonymizer(k=2).anonymize(data)
        assert len(release.equivalence_classes()) == 1


@given(k=st.integers(2, 6), n_seed=st.integers(0, 20))
@settings(max_examples=15, deadline=None)
def test_mondrian_property_k_anonymous_on_random_bits(k, n_seed):
    distribution = uniform_bits_distribution(8)
    data = distribution.sample(40 + 5 * n_seed, rng=n_seed)
    release = MondrianAnonymizer(k=k).anonymize(data)
    assert is_k_anonymous(release, k)
    assert release.is_consistent_with(data)
