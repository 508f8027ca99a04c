"""Tests for GeneralizedValue, the cover-set value of a generalized release."""

import pytest

from repro.data.hierarchy import GeneralizedValue


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
