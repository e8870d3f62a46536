"""Consolidated sweep reports over streamed JSONL result rows.

:class:`~repro.experiments.sweep.SweepRunner` streams one self-describing
JSON row per grid point (schema:
:data:`~repro.experiments.sweep.SWEEP_SUCCESS_ROW_KEYS`).  This module
turns a finished — or half-finished — results file into one human-readable
document: an overview (points, failures, cache hits, attempts), per-axis
aggregates over every sweep axis found in the rows, device-fault counter
totals, a failure/retry breakdown and the full per-point results table.

The same report renders as GitHub-flavoured **markdown** (default) or a
self-contained **HTML** page; :func:`write_report` picks the format from
the output suffix.  Exposed on the CLI as ``python -m repro.experiments
report results.jsonl [--output report.md|report.html]`` and as the
``--report`` flag of the ``sweep`` subcommand.
"""

from __future__ import annotations

import html
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .reporting import format_float, format_markdown_table
from .runcache import read_jsonl_rows

__all__ = ["load_rows", "sweep_report", "write_report"]


def load_rows(path: str | Path) -> List[Dict[str, Any]]:
    """Read sweep JSONL rows, ordered by grid index.

    Undecodable lines (a stream torn by SIGKILL mid-write) are skipped;
    when the same grid index appears more than once (an interrupted
    launch resumed into the same file before compaction) the **last**
    occurrence wins, matching the resume reconciliation of
    :class:`~repro.experiments.sweep.SweepRunner`.
    """
    by_index: Dict[int, Dict[str, Any]] = {}
    extras: List[Dict[str, Any]] = []
    for row in read_jsonl_rows(path):
        if isinstance(row.get("index"), int):
            by_index[row["index"]] = row
        else:
            extras.append(row)
    return [by_index[i] for i in sorted(by_index)] + extras


def _succeeded(row: Mapping[str, Any]) -> bool:
    return "summary" in row and "error" not in row


def _axis_order(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Sweep axes in first-seen document order across the rows."""
    axes: List[str] = []
    for row in rows:
        for axis in row.get("overrides", {}) or {}:
            if axis not in axes:
                axes.append(axis)
    return axes


def _mean(values: List[float]) -> Optional[float]:
    return statistics.fmean(values) if values else None


# ----------------------------------------------------------------------
# Format-neutral report blocks
# ----------------------------------------------------------------------
def _overview_block(rows: Sequence[Mapping[str, Any]]) -> Tuple[List[str], List[List[Any]]]:
    succeeded = [r for r in rows if _succeeded(r)]
    failed = [r for r in rows if not _succeeded(r)]
    cache_hits = sum(1 for r in rows if r.get("cache_hit"))
    attempts = sum(int(r.get("attempts", 0)) for r in rows)
    retried = sum(1 for r in succeeded if int(r.get("attempts", 0)) > 1)
    cpu_counts = sorted({r.get("cpu_count") for r in rows if r.get("cpu_count")})
    table = [
        ["grid points", len(rows)],
        ["succeeded", len(succeeded)],
        ["failed", len(failed)],
        ["cache hits", cache_hits],
        ["executions (attempts)", attempts],
        ["retried to success", retried],
        ["cpu_count", ", ".join(str(c) for c in cpu_counts) or "-"],
    ]
    return ["metric", "value"], table


def _axis_block(
    rows: Sequence[Mapping[str, Any]], axis: str
) -> Tuple[List[str], List[List[Any]]]:
    groups: Dict[Any, List[Mapping[str, Any]]] = {}
    order: List[Any] = []
    for row in rows:
        overrides = row.get("overrides", {}) or {}
        if axis not in overrides:
            continue
        value = overrides[axis]
        key = json.dumps(value, sort_keys=True)
        if key not in groups:
            groups[key] = []
            order.append((key, value))
        groups[key].append(row)
    table: List[List[Any]] = []
    for key, value in order:
        members = groups[key]
        ok = [r for r in members if _succeeded(r)]
        accuracies = [float(r["summary"]["final_accuracy"]) for r in ok]
        rounds = [float(r["summary"]["rounds"]) for r in ok]
        times = [float(r["summary"]["total_time_s"]) for r in ok]
        table.append(
            [
                json.dumps(value) if not isinstance(value, str) else value,
                len(members),
                len(members) - len(ok),
                _mean(accuracies),
                max(accuracies) if accuracies else None,
                _mean(rounds),
                _mean(times),
            ]
        )
    headers = [
        axis,
        "points",
        "failed",
        "mean final acc",
        "best final acc",
        "mean rounds",
        "mean sim time (s)",
    ]
    return headers, table


def _faults_block(rows: Sequence[Mapping[str, Any]]) -> Tuple[List[str], List[List[Any]]]:
    counters: Dict[str, int] = {}
    reporting = 0
    for row in rows:
        faults = row.get("faults")
        if not isinstance(faults, Mapping):
            continue
        reporting += 1
        for name, value in faults.items():
            counters[name] = counters.get(name, 0) + int(value)
    table = [[name, total] for name, total in counters.items()]
    table.append(["(rows reporting counters)", reporting])
    return ["fault counter (total)", "count"], table


def _failures_block(rows: Sequence[Mapping[str, Any]]) -> Tuple[List[str], List[List[Any]]]:
    table: List[List[Any]] = []
    for row in rows:
        if _succeeded(row):
            continue
        spec_hash = str(row.get("spec_hash") or "-")
        table.append(
            [
                row.get("index", "-"),
                row.get("scenario", "-"),
                spec_hash[:12],
                int(row.get("attempts", 0)),
                str(row.get("error", "-")),
            ]
        )
    return ["index", "scenario", "spec hash", "attempts", "error"], table


def _results_block(rows: Sequence[Mapping[str, Any]]) -> Tuple[List[str], List[List[Any]]]:
    axes = _axis_order(rows)
    table: List[List[Any]] = []
    for row in rows:
        overrides = row.get("overrides", {}) or {}
        cells: List[Any] = [row.get("index", "-"), row.get("scenario", "-")]
        cells.extend(overrides.get(axis, "-") for axis in axes)
        if _succeeded(row):
            summary = row["summary"]
            cells.extend(
                [
                    int(summary["rounds"]),
                    float(summary["final_accuracy"]),
                    float(summary["final_loss"]),
                    float(summary["total_time_s"]),
                ]
            )
        else:
            cells.extend(["-", None, None, None])
        cells.append("hit" if row.get("cache_hit") else "-")
        cells.append(int(row.get("attempts", 0)))
        table.append(cells)
    headers = (
        ["index", "scenario"]
        + axes
        + ["rounds", "final acc", "final loss", "sim time (s)", "cache", "attempts"]
    )
    return headers, table


def _report_blocks(
    rows: Sequence[Mapping[str, Any]], title: str
) -> List[Tuple[str, Any]]:
    """The format-neutral document: (kind, payload) blocks."""
    blocks: List[Tuple[str, Any]] = [("title", title)]
    blocks.append(("heading", "Overview"))
    blocks.append(("table", _overview_block(rows)))
    axes = _axis_order(rows)
    if axes:
        blocks.append(("heading", "Per-axis aggregates"))
        for axis in axes:
            blocks.append(("subheading", f"Axis `{axis}`"))
            blocks.append(("table", _axis_block(rows, axis)))
    blocks.append(("heading", "Device-fault counters"))
    headers, fault_table = _faults_block(rows)
    if len(fault_table) > 1:
        blocks.append(("table", (headers, fault_table)))
    else:
        blocks.append(("para", "No rows carry fault counters."))
    failure_headers, failure_table = _failures_block(rows)
    blocks.append(("heading", "Failures and retries"))
    if failure_table:
        blocks.append(("table", (failure_headers, failure_table)))
    else:
        blocks.append(("para", "No failed grid points."))
    blocks.append(("heading", "Results"))
    blocks.append(("table", _results_block(rows)))
    return blocks


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def _render_markdown(blocks: List[Tuple[str, Any]]) -> str:
    parts: List[str] = []
    for kind, payload in blocks:
        if kind == "title":
            parts.append(f"# {payload}")
        elif kind == "heading":
            parts.append(f"## {payload}")
        elif kind == "subheading":
            parts.append(f"### {payload}")
        elif kind == "para":
            parts.append(str(payload))
        elif kind == "table":
            headers, table = payload
            parts.append(format_markdown_table(headers, table))
        else:  # pragma: no cover - internal invariant
            raise AssertionError(f"unknown report block {kind!r}")
    return "\n\n".join(parts) + "\n"


def _html_cell(value: Any) -> str:
    if isinstance(value, float) or value is None:
        return html.escape(format_float(value))
    return html.escape(str(value))


def _render_html(blocks: List[Tuple[str, Any]]) -> str:
    title = next((p for k, p in blocks if k == "title"), "Sweep report")
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(str(title))}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;max-width:72em}",
        "table{border-collapse:collapse;margin:1em 0}",
        "th,td{border:1px solid #999;padding:0.3em 0.6em;text-align:left}",
        "th{background:#eee}",
        "</style></head><body>",
    ]
    for kind, payload in blocks:
        if kind == "title":
            parts.append(f"<h1>{html.escape(str(payload))}</h1>")
        elif kind == "heading":
            parts.append(f"<h2>{html.escape(str(payload))}</h2>")
        elif kind == "subheading":
            parts.append(f"<h3>{html.escape(str(payload))}</h3>")
        elif kind == "para":
            parts.append(f"<p>{html.escape(str(payload))}</p>")
        elif kind == "table":
            headers, table = payload
            parts.append("<table><thead><tr>")
            parts.extend(f"<th>{_html_cell(h)}</th>" for h in headers)
            parts.append("</tr></thead><tbody>")
            for row in table:
                parts.append(
                    "<tr>" + "".join(f"<td>{_html_cell(c)}</td>" for c in row) + "</tr>"
                )
            parts.append("</tbody></table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def sweep_report(
    rows: Sequence[Mapping[str, Any]],
    fmt: str = "markdown",
    title: str = "Sweep report",
) -> str:
    """Render sweep JSONL rows as one consolidated document.

    ``fmt`` is ``"markdown"`` (GitHub tables) or ``"html"`` (a
    self-contained page).  Sections: overview, per-axis aggregates (one
    table per sweep axis found in the rows' ``overrides``), device-fault
    counter totals, failure/retry breakdown and the full results table.
    """
    if fmt not in ("markdown", "html"):
        raise ValueError(f"fmt must be 'markdown' or 'html', got {fmt!r}")
    if not rows:
        raise ValueError("no sweep rows to report")
    blocks = _report_blocks(rows, title)
    return _render_markdown(blocks) if fmt == "markdown" else _render_html(blocks)


def write_report(
    rows: Sequence[Mapping[str, Any]],
    path: str | Path,
    fmt: Optional[str] = None,
    title: str = "Sweep report",
) -> Path:
    """Write :func:`sweep_report` to ``path``; format from the suffix.

    ``.html``/``.htm`` renders HTML, anything else markdown; an explicit
    ``fmt`` overrides the suffix.
    """
    path = Path(path)
    if fmt is None:
        fmt = "html" if path.suffix.lower() in (".html", ".htm") else "markdown"
    text = sweep_report(rows, fmt=fmt, title=title)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
