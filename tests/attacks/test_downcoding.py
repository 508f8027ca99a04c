"""Tests for Cohen-style downcoding."""

import pytest

from repro.anonymity.mondrian import MondrianAnonymizer
from repro.attacks.downcoding import downcode, downcoding_experiment
from repro.data.dataset import Dataset
from repro.data.distributions import (
    AttributeDistribution,
    ProductDistribution,
)
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture(scope="module")
def skewed_setup():
    """A skewed two-attribute world where MAP guessing is informative."""
    schema = Schema(
        [
            Attribute("city", CategoricalDomain(["metro", "town", "village"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("age", IntegerDomain(0, 59), AttributeKind.QUASI_IDENTIFIER),
        ]
    )
    marginals = {
        "city": AttributeDistribution(
            schema.attribute("city").domain,
            {"metro": 0.7, "town": 0.2, "village": 0.1},
        ),
        "age": AttributeDistribution.uniform(schema.attribute("age").domain),
    }
    distribution = ProductDistribution(schema, marginals)
    data = distribution.sample(200, rng=0)
    release = MondrianAnonymizer(k=5).anonymize(data)
    return distribution, data, release


class TestDowncode:
    def test_map_guess_within_covers(self, skewed_setup):
        distribution, _data, release = skewed_setup
        guessed = downcode(release, distribution)
        for generalized, guess in zip(release, guessed.rows):
            assert generalized.matches(guess)

    def test_map_prefers_likely_value(self, skewed_setup):
        distribution, _data, release = skewed_setup
        guessed = downcode(release, distribution)
        for generalized, guess in zip(release, guessed.rows):
            covers = generalized["city"].covers
            if "metro" in covers:
                assert guess[0] == "metro"

    def test_schema_mismatch_rejected(self, skewed_setup):
        distribution, _data, release = skewed_setup
        from repro.data.distributions import uniform_bits_distribution

        with pytest.raises(ValueError):
            downcode(release, uniform_bits_distribution(4))


class TestExperiment:
    def test_beats_random_in_cover(self, skewed_setup):
        distribution, data, release = skewed_setup
        result = downcoding_experiment(data, release, distribution)
        # MAP beats guessing uniformly inside each generalized cover set.
        cover_sizes = [
            len(record[name].covers)
            for record in release
            for name in release.schema.names
            if not record[name].is_singleton
        ]
        random_in_cover = sum(1.0 / size for size in cover_sizes) / len(cover_sizes)
        assert result.generalized_cell_accuracy > random_in_cover
        assert 0 <= result.exact_fraction <= 1

    def test_raw_release_scores_perfectly(self, skewed_setup):
        distribution, data, _release = skewed_setup
        from repro.data.generalized import GeneralizedDataset, GeneralizedRecord

        raw_release = GeneralizedDataset(
            data.schema, [GeneralizedRecord.from_raw(record) for record in data]
        )
        result = downcoding_experiment(data, raw_release, distribution)
        assert result.exact_fraction == 1.0
        assert result.attribute_accuracy == 1.0
        assert result.generalized_cell_accuracy == 1.0  # vacuous, defined as 1

    def test_suppressed_release_rejected(self, skewed_setup):
        distribution, data, release = skewed_setup
        from repro.data.generalized import GeneralizedDataset

        pruned = GeneralizedDataset(release.schema, list(release)[:-1])
        with pytest.raises(ValueError):
            downcoding_experiment(data, pruned, distribution)

    def test_length_mismatch_rejected(self, skewed_setup):
        distribution, data, release = skewed_setup
        shorter = Dataset(data.schema, data.rows[:-1], validate=False)
        with pytest.raises(ValueError):
            downcoding_experiment(shorter, release, distribution)

    def test_result_string(self, skewed_setup):
        distribution, data, release = skewed_setup
        result = downcoding_experiment(data, release, distribution)
        assert "rows exact" in str(result)
