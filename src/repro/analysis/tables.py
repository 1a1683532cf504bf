"""Plain-text table formatting for the benchmark harness.

Every bench prints its reproduced rows through :func:`format_table` so
the tables of all benches look uniform. Numbers are formatted
compactly; strings pass through.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    formatted_rows: List[List[str]] = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in formatted_rows)
    return "\n".join(parts)


__all__ = ["format_table"]
