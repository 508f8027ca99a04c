"""ASCII figure rendering for the experiment harness.

Some of the paper's claims are *curves* — the noise/accuracy crossover of
the Fundamental Law, the n·w·(1−w)ⁿ⁻¹ isolation bell.  The tables carry the
exact numbers; these ASCII charts carry the shape, so the text output of
``python -m repro.experiments`` regenerates the "figures" too, with no
plotting dependency.
"""

from __future__ import annotations

from typing import Sequence


def ascii_chart(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    width: int = 60,
    height: int = 12,
    x_label: str = "",
    y_label: str = "",
    marker: str = "*",
) -> str:
    """Render one (x, y) series as an ASCII scatter/line chart.

    Points are plotted on a ``width x height`` grid scaled to the data
    range; axes carry min/max tick labels.  Intended for monotone-ish
    experiment curves, not general plotting.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    if width < 10 or height < 4:
        raise ValueError("chart must be at least 10x4")

    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        column = round((x - x_min) / x_span * (width - 1))
        row = height - 1 - round((y - y_min) / y_span * (height - 1))
        grid[row][column] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    top_tick = f"{y_max:.3g}"
    bottom_tick = f"{y_min:.3g}"
    gutter = max(len(top_tick), len(bottom_tick)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            tick = top_tick
        elif row_index == height - 1:
            tick = bottom_tick
        else:
            tick = ""
        lines.append(f"{tick:>{gutter}}|" + "".join(row))
    lines.append(" " * gutter + "+" + "-" * width)
    left_tick = f"{x_min:.3g}"
    right_tick = f"{x_max:.3g}"
    padding = width - len(left_tick) - len(right_tick)
    lines.append(
        " " * (gutter + 1) + left_tick + " " * max(padding, 1) + right_tick
    )
    caption_parts = [part for part in (y_label and f"y: {y_label}", x_label and f"x: {x_label}") if part]
    if caption_parts:
        lines.append(" " * (gutter + 1) + "; ".join(caption_parts))
    return "\n".join(lines)


def ascii_overlay(
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float], str]],
    title: str = "",
    width: int = 60,
    height: int = 12,
) -> str:
    """Overlay multiple series sharing an x-axis, one marker each.

    ``series`` is a list of ``(label, ys, marker)``; markers appear in a
    legend line below the chart.
    """
    if not series:
        raise ValueError("need at least one series")
    all_ys = [y for _label, ys, _marker in series for y in ys]
    y_min, y_max = min(all_ys), max(all_ys)
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    if width < 10 or height < 4:
        raise ValueError("chart must be at least 10x4")

    grid = [[" "] * width for _ in range(height)]
    for _label, ys, marker in series:
        if len(ys) != len(xs):
            raise ValueError("every series must align with xs")
        for x, y in zip(xs, ys):
            column = round((x - x_min) / x_span * (width - 1))
            row = height - 1 - round((y - y_min) / y_span * (height - 1))
            grid[row][column] = marker[0]

    lines = []
    if title:
        lines.append(title)
    top_tick, bottom_tick = f"{y_max:.3g}", f"{y_min:.3g}"
    gutter = max(len(top_tick), len(bottom_tick)) + 1
    for row_index, row in enumerate(grid):
        tick = top_tick if row_index == 0 else bottom_tick if row_index == height - 1 else ""
        lines.append(f"{tick:>{gutter}}|" + "".join(row))
    lines.append(" " * gutter + "+" + "-" * width)
    left_tick, right_tick = f"{x_min:.3g}", f"{x_max:.3g}"
    padding = width - len(left_tick) - len(right_tick)
    lines.append(" " * (gutter + 1) + left_tick + " " * max(padding, 1) + right_tick)
    legend = "  ".join(f"{marker[0]} = {label}" for label, _ys, marker in series)
    lines.append(" " * (gutter + 1) + legend)
    return "\n".join(lines)
