"""Tests for generalization hierarchies and GeneralizedValue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.hierarchy import (
    GeneralizedValue,
    IntervalHierarchy,
    SuppressionHierarchy,
    default_hierarchy,
)


class TestGeneralizedValue:
    def test_raw_singleton(self):
        value = GeneralizedValue.raw(42)
        assert value.is_singleton
        assert value.matches(42)
        assert not value.matches(43)

    def test_equality_by_cover_set(self):
        a = GeneralizedValue("30-39", range(30, 40))
        b = GeneralizedValue("thirties", range(30, 40))
        assert a == b
        assert hash(a) == hash(b)

    def test_labels_are_display_only(self):
        a = GeneralizedValue("x", [1, 2])
        b = GeneralizedValue("x", [1, 3])
        assert a != b

    def test_empty_cover_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedValue("*", [])

    def test_str_is_label(self):
        assert str(GeneralizedValue("1234*", ["12340"])) == "1234*"


class TestSuppressionHierarchy:
    def test_two_levels(self):
        hierarchy = SuppressionHierarchy(CategoricalDomain(["a", "b"]))
        assert hierarchy.levels == 2
        assert hierarchy.generalize("a", 0).is_singleton
        top = hierarchy.generalize("a", 1)
        assert top.covers == frozenset(["a", "b"])

    def test_invalid_level(self):
        hierarchy = SuppressionHierarchy(CategoricalDomain(["a"]))
        with pytest.raises(ValueError):
            hierarchy.generalize("a", 2)

    def test_invalid_value(self):
        hierarchy = SuppressionHierarchy(CategoricalDomain(["a"]))
        with pytest.raises(ValueError):
            hierarchy.generalize("z", 0)


class TestIntervalHierarchy:
    @pytest.fixture
    def hierarchy(self):
        return IntervalHierarchy(IntegerDomain(0, 100), widths=(5, 10, 20))

    def test_levels(self, hierarchy):
        assert hierarchy.levels == 5  # raw + 3 widths + suppression

    def test_paper_example_decade(self, hierarchy):
        value = hierarchy.generalize(33, 2)
        assert value.label == "30-39"
        assert value.covers == frozenset(range(30, 40))

    def test_clipping_at_domain_edge(self):
        hierarchy = IntervalHierarchy(IntegerDomain(0, 7), widths=(5,))
        value = hierarchy.generalize(6, 1)
        assert value.covers == frozenset({5, 6, 7})

    def test_nesting(self, hierarchy):
        for level in range(hierarchy.levels - 1):
            lower = hierarchy.generalize(42, level)
            higher = hierarchy.generalize(42, level + 1)
            assert lower.covers <= higher.covers

    def test_non_nesting_widths_rejected(self):
        with pytest.raises(ValueError):
            IntervalHierarchy(IntegerDomain(0, 100), widths=(4, 10))

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            IntervalHierarchy(IntegerDomain(0, 100), widths=())

    @given(value=st.integers(0, 100), level=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_value_always_covered(self, value, level):
        hierarchy = IntervalHierarchy(IntegerDomain(0, 100), widths=(5, 10, 20))
        assert hierarchy.generalize(value, level).matches(value)


class TestDefaultHierarchy:
    def test_integer_gets_intervals(self):
        hierarchy = default_hierarchy(IntegerDomain(0, 50))
        assert isinstance(hierarchy, IntervalHierarchy)

    def test_categorical_gets_suppression(self):
        hierarchy = default_hierarchy(CategoricalDomain(["a"]))
        assert isinstance(hierarchy, SuppressionHierarchy)
