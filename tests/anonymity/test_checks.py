"""Tests for k-anonymity / l-diversity / t-closeness checkers."""

import pytest

from repro.anonymity.checks import (
    distinct_l_diversity,
    equivalence_classes_on,
    is_k_anonymous,
    is_l_diverse,
    is_t_close,
    t_closeness,
)
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


def _release(schema, rows) -> GeneralizedDataset:
    """rows: list of (zip_covers, age_covers, disease)."""
    records = []
    for zips, ages, disease in rows:
        records.append(
            GeneralizedRecord(
                schema,
                [
                    GeneralizedValue("z", zips),
                    GeneralizedValue("a", ages),
                    GeneralizedValue.raw(disease),
                ],
            )
        )
    return GeneralizedDataset(schema, records)


@pytest.fixture
def two_classes(schema) -> GeneralizedDataset:
    cell_a = (["23456"], range(40, 60))
    cell_b = (["12345", "12346"], range(30, 40))
    return _release(
        schema,
        [
            (*cell_a, "covid"),
            (*cell_a, "covid"),
            (*cell_b, "cf"),
            (*cell_b, "asthma"),
        ],
    )


class TestEquivalenceClasses:
    def test_grouped_on_quasi_identifiers(self, two_classes):
        classes = equivalence_classes_on(two_classes)
        assert sorted(len(v) for v in classes.values()) == [2, 2]

    def test_explicit_names(self, two_classes):
        classes = equivalence_classes_on(two_classes, ["zip"])
        assert len(classes) == 2

    def test_unknown_names_rejected(self, two_classes):
        with pytest.raises(KeyError):
            equivalence_classes_on(two_classes, ["height"])


class TestKAnonymity:
    def test_two_anonymous(self, two_classes):
        assert is_k_anonymous(two_classes, 2)
        assert not is_k_anonymous(two_classes, 3)

    def test_empty_release(self, schema):
        assert is_k_anonymous(GeneralizedDataset(schema, []), 5)

    def test_invalid_k(self, two_classes):
        with pytest.raises(ValueError):
            is_k_anonymous(two_classes, 0)


class TestLDiversity:
    def test_distinct_l(self, two_classes):
        # class A has one disease value, class B two.
        assert distinct_l_diversity(two_classes, "disease") == 1
        assert is_l_diverse(two_classes, 1, "disease")
        assert not is_l_diverse(two_classes, 2, "disease")

    def test_unknown_sensitive(self, two_classes):
        with pytest.raises(KeyError):
            distinct_l_diversity(two_classes, "height")

    def test_empty_release_rejected(self, schema):
        with pytest.raises(ValueError):
            distinct_l_diversity(GeneralizedDataset(schema, []), "disease")

    def test_invalid_l(self, two_classes):
        with pytest.raises(ValueError):
            is_l_diverse(two_classes, 0, "disease")


class TestTCloseness:
    def test_skewed_class_far_from_global(self, two_classes):
        # Global: covid 1/2, cf 1/4, asthma 1/4.  Class A is all-covid:
        # TV distance = |1 - 0.5|/... = 0.5.
        assert t_closeness(two_classes, "disease") == pytest.approx(0.5)
        assert is_t_close(two_classes, 0.5, "disease")
        assert not is_t_close(two_classes, 0.4, "disease")

    def test_single_class_is_zero(self, schema):
        release = _release(
            schema,
            [(["12345"], [30], "covid"), (["12345"], [30], "cf")],
        )
        assert t_closeness(release, "disease") == pytest.approx(0.0)

    def test_invalid_t(self, two_classes):
        with pytest.raises(ValueError):
            is_t_close(two_classes, 1.5, "disease")

    def test_unknown_sensitive(self, two_classes):
        with pytest.raises(KeyError):
            t_closeness(two_classes, "height")
