"""Markdown/plain-text rendering of experiment results."""

from __future__ import annotations

__all__ = ["render_table", "format_cell_value"]


def format_cell_value(value) -> str:
    """Render one table cell: floats to 4 decimals, None as a dash."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.4f}"
    return str(value)


def render_table(headers: list[str], rows: list[list]) -> str:
    """A GitHub-flavored markdown table."""
    formatted = [[format_cell_value(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in formatted)) if formatted else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(row) for row in formatted)
    return "\n".join(out)
