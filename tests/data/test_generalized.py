"""Tests for generalized records and datasets (anonymized releases)."""

import pytest

from repro.anonymity.checks import equivalence_classes_on, is_k_anonymous
from repro.data.dataset import Dataset
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.generalized import GeneralizedDataset, GeneralizedRecord
from repro.data.hierarchy import GeneralizedValue
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("zip", CategoricalDomain(["12345", "12346", "23456"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("age", IntegerDomain(0, 99), AttributeKind.QUASI_IDENTIFIER),
            Attribute("disease", CategoricalDomain(["covid", "cf", "asthma"]), AttributeKind.SENSITIVE),
        ]
    )


def _cell(schema, zips, ages, diseases) -> GeneralizedRecord:
    return GeneralizedRecord(
        schema,
        [
            GeneralizedValue("z", zips),
            GeneralizedValue("a", ages),
            GeneralizedValue("d", diseases),
        ],
    )


class TestGeneralizedRecord:
    def test_matches_covered_record(self, schema):
        cell = _cell(schema, ["12345", "12346"], range(30, 40), ["cf", "asthma"])
        assert cell.matches(("12345", 33, "cf"))
        assert not cell.matches(("23456", 33, "cf"))
        assert not cell.matches(("12345", 50, "cf"))

    def test_matches_rejects_wrong_arity(self, schema):
        cell = _cell(schema, ["12345"], [30], ["cf"])
        assert not cell.matches(("12345", 30))

    def test_from_raw(self, schema):
        dataset = Dataset(schema, [("12345", 30, "cf")])
        wrapped = GeneralizedRecord.from_raw(dataset[0])
        assert wrapped.matches(dataset[0])
        assert all(value.is_singleton for value in wrapped.values)

    def test_equality_by_cover_sets(self, schema):
        a = _cell(schema, ["12345"], [30], ["cf"])
        b = _cell(schema, ["12345"], [30], ["cf"])
        assert a == b and hash(a) == hash(b)

    def test_wrong_arity_rejected(self, schema):
        with pytest.raises(ValueError):
            GeneralizedRecord(schema, [GeneralizedValue.raw("12345")])

    def test_raw_values_rejected(self, schema):
        with pytest.raises(TypeError):
            GeneralizedRecord(schema, ["12345", 30, "cf"])

    def test_getitem(self, schema):
        cell = _cell(schema, ["12345"], [30], ["cf"])
        assert cell["zip"].covers == frozenset(["12345"])


class TestGeneralizedDataset:
    def test_paper_toy_example_is_2_anonymous(self, schema):
        # Section 1.1's anonymized table: two classes of two.
        top = _cell(schema, ["23456"], range(0, 100), ["covid"])
        bottom = _cell(schema, ["12345", "12346"], range(30, 40), ["cf", "asthma"])
        release = GeneralizedDataset(schema, [top, top, bottom, bottom])
        assert is_k_anonymous(release, 2)
        assert not is_k_anonymous(release, 3)
        assert len(release.equivalence_classes()) == 2

    def test_class_sizes_sorted(self, schema):
        a = _cell(schema, ["12345"], [1], ["cf"])
        b = _cell(schema, ["12346"], [2], ["cf"])
        release = GeneralizedDataset(schema, [a, a, a, b])
        sizes = sorted(
            (len(rows) for rows in equivalence_classes_on(release).values()), reverse=True
        )
        assert sizes == [3, 1]

    def test_empty_release(self, schema):
        release = GeneralizedDataset(schema, [])
        assert is_k_anonymous(release, 5)
        assert equivalence_classes_on(release) == {}

    def test_invalid_k(self, schema):
        release = GeneralizedDataset(schema, [])
        with pytest.raises(ValueError):
            is_k_anonymous(release, 0)

    def test_consistency_with_source(self, schema):
        raw = Dataset(schema, [("23456", 55, "covid"), ("12345", 30, "cf")])
        release = GeneralizedDataset(
            schema,
            [
                _cell(schema, ["23456"], range(0, 100), ["covid"]),
                _cell(schema, ["12345", "12346"], range(30, 40), ["cf"]),
            ],
        )
        assert release.is_consistent_with(raw)

    def test_inconsistency_detected(self, schema):
        raw = Dataset(schema, [("23456", 55, "covid")])
        release = GeneralizedDataset(schema, [_cell(schema, ["12345"], [1], ["cf"])])
        assert not release.is_consistent_with(raw)

    def test_length_mismatch_is_inconsistent(self, schema):
        raw = Dataset(schema, [("23456", 55, "covid")])
        release = GeneralizedDataset(schema, [])
        assert not release.is_consistent_with(raw)
