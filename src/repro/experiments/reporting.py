"""Markdown/plain-text rendering of experiment results."""

from __future__ import annotations

__all__ = ["render_artifact", "render_table", "format_cell_value"]


def format_cell_value(value) -> str:
    """Render one table cell.

    Floats to 4 significant digits, an ``(rs, rp)`` pair as
    ``rs (rp)``, None as a dash.
    """
    if value is None:
        return "-"
    if isinstance(value, tuple):
        first, second = value
        return f"{format_cell_value(first)} ({format_cell_value(second)})"
    if isinstance(value, float):
        return f"{value:.4g}"
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


def render_artifact(artifact) -> str:
    """One report section: the artifact's tables, then its summary.

    The summary table lists the numbers its bench scenario reports as
    metrics, under the same names, at full precision (``repr``, as the
    scenario's ``BENCH_<name>.json`` writes them).
    """
    out = [f"## {artifact.title}"]
    for table in artifact.tables:
        if table.heading:
            out.append(f"### {table.heading}")
        out.append(render_table(list(table.headers), table.rows))
        if table.plot:
            out.append(f"```text\n{table.plot}\n```")
    out.append("### summary")
    out.append(render_table(
        ["metric", "value"],
        [[name, repr(float(value))] for name, value in artifact.summary.items()],
    ))
    return "\n\n".join(out) + "\n"
