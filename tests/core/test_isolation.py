"""Tests for isolation (Definition 2.1)."""

import numpy as np
import pytest

from repro.core.isolation import isolates
from repro.core.predicate import attribute_predicate
from repro.data.dataset import Dataset
from repro.data.domain import IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture
def dataset() -> Dataset:
    schema = Schema([Attribute("v", IntegerDomain(0, 9), AttributeKind.QUASI_IDENTIFIER)])
    return Dataset(schema, [(1,), (2,), (2,), (3,)])


class TestIsolation:
    def test_isolates_unique_value(self, dataset):
        assert isolates(attribute_predicate("v", 1), dataset)
        assert isolates(attribute_predicate("v", 3), dataset)

    def test_duplicated_value_not_isolated(self, dataset):
        # Definition 2.1 acts on values: two identical records can never be
        # isolated.
        assert not isolates(attribute_predicate("v", 2), dataset)

    def test_absent_value_not_isolated(self, dataset):
        assert not isolates(attribute_predicate("v", 9), dataset)

    def test_match_count(self, dataset):
        assert dataset.match_count(attribute_predicate("v", 2)) == 2
        assert dataset.match_count(attribute_predicate("v", {1, 2})) == 3

    def test_match_mask(self, dataset):
        mask = dataset.match_mask(attribute_predicate("v", 2))
        assert np.flatnonzero(mask).tolist() == [1, 2]

    def test_tautology_not_isolating(self, dataset):
        assert not isolates(attribute_predicate("v", set(range(10))), dataset)

    def test_single_record_dataset(self):
        schema = Schema([Attribute("v", IntegerDomain(0, 9))])
        data = Dataset(schema, [(5,)])
        assert isolates(attribute_predicate("v", 5), data)
