"""Plain-text table rendering for the experiment harness.

Every experiment ends by printing a "paper says / we measured" table.  We
render these as aligned ASCII so the output of ``pytest benchmarks/`` and the
example scripts reads like the tables in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Table:
    """A small column-aligned text table.

    Usage::

        table = Table(["n", "queries", "accuracy"], title="E2: LP reconstruction")
        table.add_row([128, 1280, "0.993"])
        print(table.render())
    """

    headers: Sequence[str]
    title: str = ""
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Iterable[object]) -> None:
        """Append a row; values are stringified with :func:`format_cell`."""
        row = [format_cell(value) for value in values]
        if len(row) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} cells, got {len(row)}")
        self.rows.append(row)

    def render(self) -> str:
        """Render the table as aligned ASCII text."""
        header_cells = [str(h) for h in self.headers]
        widths = [len(h) for h in header_cells]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        separator = "  ".join("-" * w for w in widths)
        parts: list[str] = []
        if self.title:
            parts.append(self.title)
            parts.append("=" * max(len(self.title), len(separator)))
        parts.append(line(header_cells))
        parts.append(separator)
        parts.extend(line(row) for row in self.rows)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()


def format_cell(value: object) -> str:
    """Stringify a table cell: floats get 4 significant digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
