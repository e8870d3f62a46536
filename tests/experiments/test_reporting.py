"""Unit tests for the plain-text reporting helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import format_float, format_series, format_table


class TestFormatFloat:
    def test_regular_value(self):
        assert format_float(1.23456, precision=2) == "1.23"

    def test_none_is_dash(self):
        assert format_float(None) == "-"

    def test_nan_and_inf(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["name", "value"], [("a", 1.0), ("b", 2.5)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "2.500" in lines[-1]

    def test_alignment_widths(self):
        text = format_table(["m"], [("longer-name",)])
        header, sep, row = text.splitlines()
        assert len(header) == len(sep) == len(row)

    def test_none_cells_rendered_as_dash(self):
        text = format_table(["x"], [(None,)])
        assert "-" in text.splitlines()[-1]

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1.0,)])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestFormatSeries:
    def test_renders_each_series(self):
        series = {
            "air_fedga": {"time": np.arange(20.0), "accuracy": np.linspace(0, 1, 20)},
        }
        text = format_series(series, max_points=5)
        assert text.startswith("air_fedga:")
        # Down-sampled to roughly max_points entries.
        assert text.count("(") <= 7

    def test_mismatched_lengths_rejected(self):
        series = {"x": {"time": [1.0, 2.0], "accuracy": [0.1]}}
        with pytest.raises(ValueError):
            format_series(series)
