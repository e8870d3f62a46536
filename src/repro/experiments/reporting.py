"""Plain-text reporting helpers used by the benchmark harness.

The paper reports results as figures; this reproduction prints the same
series as aligned text tables so they can be diffed and logged by
pytest-benchmark.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_markdown_table",
    "format_series",
    "format_float",
]


def format_float(value: Optional[float], precision: int = 3) -> str:
    """Format a possibly-missing float for table output."""
    if value is None:
        return "-"
    if isinstance(value, float) and (value != value):  # NaN
        return "nan"
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return f"{value:.{precision}f}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    if not headers:
        raise ValueError("headers must be non-empty")
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        rendered_rows.append(
            [
                format_float(cell, precision) if isinstance(cell, float) or cell is None
                else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render rows as a GitHub-flavoured markdown table.

    Cell formatting matches :func:`format_table` (floats through
    :func:`format_float`, ``None`` as ``-``); pipes in cell text are
    escaped so a value can never break the table structure.  Used by the
    sweep report generator (:mod:`repro.experiments.report`).
    """
    if not headers:
        raise ValueError("headers must be non-empty")

    def cell(value: object) -> str:
        if isinstance(value, float) or value is None:
            text = format_float(value, precision)
        else:
            text = str(value)
        return text.replace("|", "\\|")

    lines = ["| " + " | ".join(cell(h) for h in headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Mapping[str, Iterable[float]]],
    x_key: str = "time",
    y_key: str = "accuracy",
    max_points: int = 10,
    precision: int = 3,
) -> str:
    """Render {name: {x_key: [...], y_key: [...]}} curves as text."""
    lines: List[str] = []
    for name, data in series.items():
        xs = list(data[x_key])
        ys = list(data[y_key])
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r} has mismatched x/y lengths")
        step = max(1, len(xs) // max_points)
        pts = ", ".join(
            f"({format_float(float(x), 1)}, {format_float(float(y), precision)})"
            for x, y in list(zip(xs, ys))[::step]
        )
        lines.append(f"{name}: {pts}")
    return "\n".join(lines)
