"""Tests for attribute domains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.domain import CategoricalDomain, IntegerDomain


class TestCategoricalDomain:
    def test_membership_and_order(self):
        domain = CategoricalDomain(["F", "M"])
        assert "F" in domain and "M" in domain
        assert "X" not in domain
        assert list(domain) == ["F", "M"]
        assert len(domain) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CategoricalDomain(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CategoricalDomain([])

    def test_index_of(self):
        domain = CategoricalDomain(["x", "y", "z"])
        assert domain.index_of("y") == 1
        with pytest.raises(ValueError):
            domain.index_of("w")

    def test_equality_and_hash(self):
        a = CategoricalDomain(["x", "y"])
        b = CategoricalDomain(["x", "y"])
        c = CategoricalDomain(["y", "x"])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_validate(self):
        domain = CategoricalDomain(["a"])
        domain.validate("a")
        with pytest.raises(ValueError):
            domain.validate("b")


class TestIntegerDomain:
    def test_membership(self):
        domain = IntegerDomain(0, 10)
        assert 0 in domain and 10 in domain and 5 in domain
        assert -1 not in domain and 11 not in domain

    def test_booleans_are_not_members(self):
        # bool is an int subclass; domains treat it as a distinct type.
        assert True not in IntegerDomain(0, 10)

    def test_non_integers_not_members(self):
        domain = IntegerDomain(0, 10)
        assert 5.0 not in domain
        assert "5" not in domain

    def test_iteration_and_len(self):
        domain = IntegerDomain(3, 6)
        assert list(domain) == [3, 4, 5, 6]
        assert len(domain) == 4

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            IntegerDomain(5, 4)

    def test_singleton_range(self):
        domain = IntegerDomain(7, 7)
        assert list(domain) == [7]

    @given(low=st.integers(-1000, 1000), span=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_len_matches_iteration(self, low, span):
        domain = IntegerDomain(low, low + span)
        assert len(domain) == span + 1
