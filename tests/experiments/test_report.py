"""Tests for the consolidated sweep report generator."""

import json

import pytest

from repro.experiments.report import load_rows, sweep_report, write_report
from repro.experiments.reporting import format_markdown_table


def make_rows():
    """A small mixed grid: two successes (one cached), one failure."""

    def summary(acc, rounds=3.0, loss=1.2, time_s=40.0):
        return {
            "mechanism": "air_fedga",
            "rounds": rounds,
            "total_time_s": time_s,
            "avg_round_time_s": time_s / rounds,
            "final_loss": loss,
            "final_accuracy": acc,
            "best_accuracy": acc,
            "total_energy_j": 1.0,
            "max_staleness": 0,
        }

    return [
        {
            "index": 0,
            "scenario": "grid#0",
            "spec_hash": "a" * 64,
            "overrides": {"seed": 0},
            "cpu_count": 4,
            "attempts": 1,
            "cache_hit": False,
            "summary": summary(0.8),
            "faults": {"workers_dropped": 2, "quorum_retries": 1},
        },
        {
            "index": 1,
            "scenario": "grid#1",
            "spec_hash": "b" * 64,
            "overrides": {"seed": 1},
            "cpu_count": 4,
            "attempts": 0,
            "cache_hit": True,
            "summary": summary(0.6, time_s=50.0),
            "faults": {"workers_dropped": 1, "quorum_retries": 0},
        },
        {
            "index": 2,
            "scenario": "grid#2",
            "spec_hash": "c" * 64,
            "overrides": {"seed": 2},
            "cpu_count": 4,
            "attempts": 3,
            "cache_hit": False,
            "error": "RuntimeError: flaky dependency offline",
            "traceback": "Traceback (most recent call last):\n...",
        },
    ]


class TestMarkdownReport:
    def test_sections_and_aggregates(self):
        text = sweep_report(make_rows(), title="Kill grid")
        assert text.startswith("# Kill grid")
        for heading in (
            "## Overview",
            "## Per-axis aggregates",
            "### Axis `seed`",
            "## Device-fault counters",
            "## Failures and retries",
            "## Results",
        ):
            assert heading in text
        # Overview counts the mixed grid correctly.
        assert "| grid points | 3 |" in text
        assert "| succeeded | 2 |" in text
        assert "| failed | 1 |" in text
        assert "| cache hits | 1 |" in text
        assert "| executions (attempts) | 4 |" in text
        # Fault counters are totalled across rows.
        assert "| workers_dropped | 3 |" in text
        assert "| quorum_retries | 1 |" in text
        # The failure row carries the spec-hash prefix, attempts and error.
        assert "c" * 12 in text and "c" * 13 not in text
        assert "RuntimeError: flaky dependency offline" in text

    def test_failure_free_grid_says_so(self):
        rows = [row for row in make_rows() if "summary" in row]
        text = sweep_report(rows)
        assert "No failed grid points." in text

    def test_rows_without_fault_counters_say_so(self):
        rows = make_rows()
        for row in rows:
            row.pop("faults", None)
        assert "No rows carry fault counters." in sweep_report(rows)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no sweep rows"):
            sweep_report([])

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="fmt"):
            sweep_report(make_rows(), fmt="pdf")


class TestHtmlReport:
    def test_self_contained_page_with_escaping(self):
        rows = make_rows()
        rows[2]["error"] = "ValueError: <bad> & worse"
        text = sweep_report(rows, fmt="html", title="Kill <grid>")
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text  # self-contained: inline CSS
        assert "<title>Kill &lt;grid&gt;</title>" in text
        assert "ValueError: &lt;bad&gt; &amp; worse" in text
        assert "<bad>" not in text


class TestWriteReport:
    def test_suffix_selects_the_format(self, tmp_path):
        md = write_report(make_rows(), tmp_path / "report.md")
        page = write_report(make_rows(), tmp_path / "report.HTML")
        assert md.read_text().startswith("# Sweep report")
        assert page.read_text().startswith("<!DOCTYPE html>")

    def test_explicit_format_overrides_the_suffix(self, tmp_path):
        path = write_report(make_rows(), tmp_path / "report.txt", fmt="html")
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_parent_directories_are_created(self, tmp_path):
        path = write_report(make_rows(), tmp_path / "deep" / "nest" / "r.md")
        assert path.exists()


class TestLoadRows:
    def test_orders_by_index_with_last_occurrence_winning(self, tmp_path):
        rows = make_rows()
        resumed = dict(rows[2])
        resumed.pop("error"), resumed.pop("traceback")
        resumed["summary"] = rows[0]["summary"]
        # Completion order 2,0,1 then a resumed duplicate of 2 and a torn tail.
        path = tmp_path / "rows.jsonl"
        lines = [rows[2], rows[0], rows[1], resumed]
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n" + '{"torn')
        loaded = load_rows(path)
        assert [row["index"] for row in loaded] == [0, 1, 2]
        assert "error" not in loaded[2] and "summary" in loaded[2]

    def test_rows_with_retired_pipeline_keys_load_and_render(self, tmp_path):
        # JSONL written while the pipelined mode existed stays readable.
        old_row = dict(
            make_rows()[0], pipeline=False, pipeline_hits=0, pipeline_recomputes=0
        )
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(old_row) + "\n")
        loaded = load_rows(path)
        assert loaded == [old_row]
        assert "grid#0" in sweep_report(loaded)

    def test_rows_without_an_index_are_kept_at_the_end(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({"note": "freeform"}) + "\n"
                        + json.dumps(make_rows()[0]) + "\n")
        loaded = load_rows(path)
        assert loaded[0]["index"] == 0 and loaded[1] == {"note": "freeform"}


class TestMarkdownTableHelper:
    def test_pipes_escaped_and_floats_formatted(self):
        table = format_markdown_table(["name", "acc"], [["a|b", 0.12345], ["c", None]])
        assert "a\\|b" in table
        assert "0.123" in table
        assert table.splitlines()[1].startswith("| ---")

    def test_header_cell_count_enforced(self):
        with pytest.raises(ValueError, match="headers"):
            format_markdown_table(["only"], [["a", "b"]])
