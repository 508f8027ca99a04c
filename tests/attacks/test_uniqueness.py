"""Tests for the QI-uniqueness analysis."""

import pytest

from repro.attacks.uniqueness import (
    k_anonymity_level,
    uniqueness_profile,
)
from repro.data.dataset import Dataset
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture
def dataset() -> Dataset:
    schema = Schema(
        [
            Attribute("zip", CategoricalDomain(["a", "b"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("age", IntegerDomain(0, 99), AttributeKind.QUASI_IDENTIFIER),
        ]
    )
    return Dataset(schema, [("a", 30), ("a", 30), ("a", 40), ("b", 30)])


class TestUniquenessProfile:
    def test_escalation(self, dataset):
        profile = uniqueness_profile(dataset, [("zip",), ("zip", "age")])
        assert profile[("zip",)] == 0.25  # only ("b",) row is unique
        assert profile[("zip", "age")] == 0.5  # ("a",40) and ("b",30)

    def test_monotone_in_attributes(self, dataset):
        profile = uniqueness_profile(dataset, [("age",), ("zip", "age")])
        assert profile[("zip", "age")] >= profile[("age",)]

    def test_empty_qi_sets_rejected(self, dataset):
        with pytest.raises(ValueError):
            uniqueness_profile(dataset, [])


class TestKAnonymityLevel:
    def test_level(self, dataset):
        assert k_anonymity_level(dataset, ["zip"]) == 1
        schema = dataset.schema
        doubled = Dataset(schema, list(dataset.rows) * 2)
        assert k_anonymity_level(doubled, ["zip", "age"]) == 2

    def test_empty_rejected(self, dataset):
        empty = Dataset(dataset.schema, [])
        with pytest.raises(ValueError):
            k_anonymity_level(empty, ["zip"])
