"""Tests for schemas and privacy-role annotations."""

import pytest

from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture
def medical_schema() -> Schema:
    return Schema(
        [
            Attribute("name", CategoricalDomain(["alice", "bob"]), AttributeKind.IDENTIFIER),
            Attribute("zip", CategoricalDomain(["12345", "23456"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("age", IntegerDomain(0, 120), AttributeKind.QUASI_IDENTIFIER),
            Attribute("disease", CategoricalDomain(["flu", "cf"]), AttributeKind.SENSITIVE),
        ]
    )


class TestSchemaBasics:
    def test_names_in_order(self, medical_schema):
        assert medical_schema.names == ("name", "zip", "age", "disease")

    def test_index_of(self, medical_schema):
        assert medical_schema.index_of("age") == 2
        with pytest.raises(KeyError):
            medical_schema.index_of("height")

    def test_contains(self, medical_schema):
        assert "zip" in medical_schema
        assert "height" not in medical_schema

    def test_duplicate_names_rejected(self):
        attribute = Attribute("x", IntegerDomain(0, 1))
        with pytest.raises(ValueError):
            Schema([attribute, attribute])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(ValueError):
            Attribute("", IntegerDomain(0, 1))

    def test_equality(self, medical_schema):
        clone = Schema(list(medical_schema.attributes))
        assert clone == medical_schema
        assert hash(clone) == hash(medical_schema)


class TestPrivacyRoles:
    def test_identifiers(self, medical_schema):
        assert medical_schema.identifiers == ("name",)

    def test_quasi_identifiers(self, medical_schema):
        assert medical_schema.quasi_identifiers == ("zip", "age")

    def test_sensitive(self, medical_schema):
        assert medical_schema.sensitive == ("disease",)

    def test_default_kind_is_insensitive(self):
        attribute = Attribute("x", IntegerDomain(0, 1))
        assert attribute.kind is AttributeKind.INSENSITIVE


class TestRecordValidation:
    def test_valid_record(self, medical_schema):
        medical_schema.validate_record(("alice", "12345", 30, "flu"))

    def test_wrong_arity(self, medical_schema):
        with pytest.raises(ValueError):
            medical_schema.validate_record(("alice", "12345", 30))

    def test_out_of_domain_value(self, medical_schema):
        with pytest.raises(ValueError):
            medical_schema.validate_record(("alice", "99999", 30, "flu"))


class TestProjection:
    def test_project(self, medical_schema):
        projected = medical_schema.project(["age", "zip"])
        assert projected.names == ("age", "zip")

    def test_drop(self, medical_schema):
        dropped = medical_schema.drop(["name"])
        assert dropped.names == ("zip", "age", "disease")

    def test_drop_unknown_raises(self, medical_schema):
        with pytest.raises(KeyError):
            medical_schema.drop(["height"])
