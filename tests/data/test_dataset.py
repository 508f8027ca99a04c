"""Tests for the immutable Dataset and Record types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("zip", CategoricalDomain(["12345", "12346", "23456"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("age", IntegerDomain(0, 120), AttributeKind.QUASI_IDENTIFIER),
            Attribute("sex", CategoricalDomain(["F", "M"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("disease", CategoricalDomain(["covid", "cf", "asthma"]), AttributeKind.SENSITIVE),
        ]
    )


@pytest.fixture
def toy(schema) -> Dataset:
    # The paper's toy example, Section 1.1.
    return Dataset(
        schema,
        [
            ("23456", 55, "F", "covid"),
            ("23456", 42, "F", "covid"),
            ("12345", 30, "M", "cf"),
            ("12346", 33, "F", "asthma"),
        ],
    )


class TestRecord:
    def test_name_access(self, toy):
        record = toy[0]
        assert record["zip"] == "23456"
        assert record["age"] == 55

    def test_equality_by_values(self, toy):
        assert toy[0] == toy[0]
        assert toy[0] != toy[1]
        assert toy[0] == ("23456", 55, "F", "covid")

    def test_hashable(self, toy):
        assert len({toy[0], toy[1], toy[0]}) == 2

    def test_replace(self, toy):
        changed = toy[0].replace(age=56)
        assert changed["age"] == 56
        assert toy[0]["age"] == 55  # original untouched

    def test_get_with_default(self, toy):
        assert toy[0].get("height", -1) == -1
        assert toy[0].get("age") == 55

    def test_len_and_iter(self, toy):
        assert len(toy[0]) == 4
        assert list(toy[0]) == ["23456", 55, "F", "covid"]


class TestDatasetBasics:
    def test_len_and_indexing(self, toy):
        assert len(toy) == 4
        assert toy[2]["disease"] == "cf"

    def test_validation_on_construction(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, [("99999", 10, "F", "covid")])

    def test_column(self, toy):
        assert toy.column("sex") == ("F", "F", "M", "F")

    def test_equality_and_hash(self, schema, toy):
        clone = Dataset(schema, toy.rows)
        assert clone == toy
        assert hash(clone) == hash(toy)


class TestRelationalOps:
    def test_project(self, toy):
        projected = toy.project(["sex", "age"])
        assert projected.schema.names == ("sex", "age")
        assert projected[0].values == ("F", 55)

    def test_drop(self, toy):
        dropped = toy.drop(["disease"])
        assert "disease" not in dropped.schema
        assert len(dropped) == 4

    def test_drop_unknown_raises(self, toy):
        with pytest.raises(KeyError):
            toy.drop(["height"])

    def test_count(self, toy):
        assert toy.count(lambda r: r["disease"] == "covid") == 2

    def test_multiplicity(self, toy):
        assert toy.multiplicity(toy[0]) == 1
        assert toy.multiplicity(("00000", 1, "F", "cf")) == 0


class TestGroupingAndUniqueness:
    def test_group_by(self, toy):
        groups = toy.group_by(["sex"])
        assert sorted(groups[("F",)]) == [0, 1, 3]
        assert groups[("M",)] == [2]

    def test_unique_fraction(self, toy):
        assert toy.unique_fraction(["zip", "age", "sex"]) == 1.0
        assert toy.unique_fraction(["sex"]) == 0.25  # only M is unique

    def test_unique_fraction_empty_raises(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, []).unique_fraction(["sex"])


@given(
    ages=st.lists(st.integers(0, 120), min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_group_sizes_partition_dataset(ages):
    schema = Schema([Attribute("age", IntegerDomain(0, 120))])
    dataset = Dataset(schema, [(a,) for a in ages])
    groups = dataset.group_by(["age"])
    assert sum(len(v) for v in groups.values()) == len(dataset)
    # Every index appears exactly once.
    indices = sorted(i for rows in groups.values() for i in rows)
    assert indices == list(range(len(dataset)))
