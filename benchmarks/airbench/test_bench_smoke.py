"""Tier-1 smoke of the repo benchmark — smoke sizes, in-process, no timing asserts.

What is pinned: ``BENCHMARK.json`` is what the code defines; every workload
runs, passes its checks and reports every named metric with its unit; a
traced repetition reproduces the untraced one bit for bit (that is one of the
checks behind ``correct``); span self times add up to the roots' durations;
and the wrappers are gone afterwards.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from . import adapter, bench, measure
from .trace import END, PARENT, START, aggregate

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_is_what_the_code_defines():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == bench.manifest()


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_workload_runs_traced_and_untraced(name):
    before = adapter.wrapped_callables()
    result = measure.run_workload(name, seed=0, seconds=0.0, trace=True, smoke=True, min_reps=1)

    assert result["correct"], result["problems"]
    assert (result["attempted"], result["failed"]) == (2, 0)
    for metric, unit, _, _ in measure.END_TO_END:
        assert result["end_to_end"][metric]["unit"] == unit
        assert result["end_to_end"][metric]["value"] > 0, metric
    spec = measure.per_layer_spec()
    assert list(result["per_layer"]) == [metric for metric, _, _ in spec]
    for metric, unit, _ in spec:
        assert result["per_layer"][metric]["unit"] == unit
    assert result["per_layer"]["bench.wrap_targets_missing"]["value"] == 0
    assert result["per_layer"]["bench.span_coverage"]["value"] > 0.95
    assert result["per_layer"]["fl.loop.calls"]["value"] >= 1

    spans = result["spans"]
    root_ns = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    assert sum(row["self_ns"] for row in aggregate(spans).values()) == root_ns

    after = adapter.wrapped_callables()
    assert len(after) == len(before) and all(a is b for a, b in zip(after, before))


def _cell(samples):
    return bench._summary("s", samples)


def test_verdict_is_noise_aware():
    quiet = _cell([1.00, 1.01, 0.99, 1.00, 1.02])
    assert bench.verdict(quiet, _cell([1.01, 1.00, 1.02, 0.99, 1.01]), "lower", 0.1) == "same"
    assert bench.verdict(quiet, _cell([1.30, 1.31, 1.29, 1.30, 1.32]), "lower", 0.1) == "worse"
    assert bench.verdict(quiet, _cell([0.80, 0.81, 0.79, 0.80, 0.82]), "lower", 0.1) == "better"
    assert bench.verdict(quiet, _cell([0.80, 0.81, 0.79, 0.80, 0.82]), "higher", 0.1) == "worse"
    noisy = _cell([0.7, 1.0, 1.3, 0.8, 1.2])
    assert bench.verdict(noisy, _cell([0.9, 1.1, 1.4, 0.7, 1.0]), "lower", 0.1) == "unresolved"
    assert bench.verdict(noisy, _cell([0.3, 0.4, 0.5, 0.2, 0.6]), "lower", 0.1) == "better"


def test_compare_prints_a_row_per_metric_and_workload(tmp_path, capsys):
    def record(scale):
        cells = {m: _cell([scale, scale * 1.01, scale * 0.99]) for m, _, _, _ in measure.END_TO_END}
        return {"stamp": {}, "workloads": {w: {"end_to_end": cells} for w in measure.WORKLOADS}}

    base, other = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(record(1.0)))
    other.write_text(json.dumps(record(1.0)))
    assert bench.main(["--compare", str(base), str(other)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith("same")]
    assert len(rows) == len(measure.WORKLOADS) * len(measure.END_TO_END)
