"""Tests for ASCII table rendering."""

import pytest

from repro.utils.tables import Table, format_cell, format_table


class TestTable:
    def test_basic_rendering(self):
        table = Table(["a", "bb"], title="T")
        table.add_row([1, 2])
        text = table.render()
        assert "T" in text
        assert "a" in text and "bb" in text
        assert "1" in text and "2" in text

    def test_alignment(self):
        table = Table(["col", "x"])
        table.add_row(["short", 1])
        table.add_row(["a-much-longer-cell", 2])
        lines = table.render().splitlines()
        # Header and rows share the second-column start offset.
        offsets = {line.rstrip().rfind(text) for line, text in zip(lines, ["x", "-", "1", "2"])}
        assert len(lines) == 4
        assert len(offsets) == 1

    def test_wrong_arity_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_str_equals_render(self):
        table = Table(["a"])
        table.add_row([1])
        assert str(table) == table.render()

    def test_no_title(self):
        table = Table(["a"])
        table.add_row([1])
        assert not table.render().startswith("=")


class TestFormatCell:
    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_small_float_scientific(self):
        assert "e-" in format_cell(1.5e-7)

    def test_zero(self):
        assert format_cell(0.0) == "0"

    def test_moderate_float(self):
        assert format_cell(0.4219) == "0.4219"

    def test_large_float_scientific(self):
        assert "e+" in format_cell(123456.0)

    def test_string_passthrough(self):
        assert format_cell("abc") == "abc"

    def test_int_not_science(self):
        assert format_cell(123456) == "123456"


def test_format_table_one_shot():
    text = format_table(["x", "y"], [[1, 2], [3, 4]], title="demo")
    assert "demo" in text
    # title + separator + header + rule + 2 rows = 6 lines.
    assert len(text.splitlines()) == 6
