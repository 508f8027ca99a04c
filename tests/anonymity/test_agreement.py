"""Tests for the agreement-based suppression anonymizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymity.agreement import AgreementAnonymizer
from repro.anonymity.checks import equivalence_classes_on, is_k_anonymous
from repro.data.dataset import Dataset
from repro.data.distributions import ProductDistribution, uniform_bits_distribution, uniform_bits_schema
from repro.data.domain import CategoricalDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture(scope="module")
def wide_data():
    return uniform_bits_distribution(64).sample(100, rng=0)


class TestAgreementAnonymizer:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_k_anonymous(self, wide_data, k):
        release = AgreementAnonymizer(k).anonymize(wide_data)
        assert is_k_anonymous(release, k)

    def test_group_sizes_at_least_k(self, wide_data):
        release = AgreementAnonymizer(4).anonymize(wide_data)
        assert min(len(rows) for rows in equivalence_classes_on(release).values()) >= 4

    def test_remainder_joins_last_group(self):
        data = uniform_bits_distribution(16).sample(10, rng=1)
        release = AgreementAnonymizer(4).anonymize(data)
        # 10 = 4 + 6: no group smaller than k.
        sizes = sorted(len(rows) for rows in equivalence_classes_on(release).values())
        assert sizes == [4, 6]

    def test_released_values_cover_raw(self, wide_data):
        release = AgreementAnonymizer(4).anonymize(wide_data)
        assert release.is_consistent_with(wide_data)

    def test_sorted_beats_sequential_on_agreement(self, wide_data):
        def suppressed_cells(release):
            return sum(
                0 if value.is_singleton else 1
                for record in release
                for value in record.values
            )

        sorted_release = AgreementAnonymizer(4, strategy="sorted").anonymize(wide_data)
        sequential_release = AgreementAnonymizer(4, strategy="sequential").anonymize(wide_data)
        assert suppressed_cells(sorted_release) <= suppressed_cells(sequential_release)

    def test_sensitive_attribute_released_raw(self):
        bits = uniform_bits_schema(16)
        schema = Schema(
            list(bits.attributes)
            + [Attribute("secret", CategoricalDomain(range(10)), AttributeKind.SENSITIVE)]
        )
        data = ProductDistribution.uniform(schema).sample(40, rng=2)
        release = AgreementAnonymizer(4).anonymize(data)
        assert all(record["secret"].is_singleton for record in release)
        # But the release is still k-anonymous over the quasi-identifiers.
        assert is_k_anonymous(release, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AgreementAnonymizer(0)
        with pytest.raises(ValueError):
            AgreementAnonymizer(2, strategy="random")

    def test_too_few_records(self, wide_data):
        tiny = Dataset(wide_data.schema, wide_data.rows[:2], validate=False)
        with pytest.raises(ValueError):
            AgreementAnonymizer(5).anonymize(tiny)

    def test_empty(self, wide_data):
        empty = Dataset(wide_data.schema, [], validate=False)
        assert len(AgreementAnonymizer(5).anonymize(empty)) == 0


@given(k=st.integers(2, 5), seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_agreement_property_always_k_anonymous(k, seed):
    data = uniform_bits_distribution(12).sample(30, rng=seed)
    release = AgreementAnonymizer(k).anonymize(data)
    assert is_k_anonymous(release, k)
    assert len(release) == len(data)
