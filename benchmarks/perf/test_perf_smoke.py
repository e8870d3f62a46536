"""Perf-harness smoke tests: the in-process tier of the legacy harness
runs and returns a well-formed row (the XL and convergence tiers have
their own ``make`` smoke jobs).

These are functional CI guards on tiny inputs with one or two repeats, so
they assert only shape: the keys are there and the timings and ratios are
finite and positive.  Which path is faster is not decided here — a
wall-clock ``speedup > 1.0`` on a 10-worker round flips with host load —
but by ``python3 benchmarks/airbench/bench.py --compare`` (noise-aware,
see benchmarks/airbench/README.md) and the curated BENCH_perf_v1.json
numbers (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import math

from repro.experiments.bench import bench_grouped_round_mp, write_bench_results


def assert_finite_positive(row, keys):
    for key in keys:
        assert key in row, f"missing {key!r} in {sorted(row)}"
        value = row[key]
        assert math.isfinite(value) and value > 0, f"{key}={value!r}"


def test_grouped_round_mp_tier_runs_and_annotates_cpu_count():
    result = bench_grouped_round_mp(
        10, rounds_per_group=1, repeats=1, num_processes=1
    )
    assert result["num_workers"] == 10
    # Self-describing rows: whether sharding pays depends on the host's
    # core count, so every record must carry it (docs/PERFORMANCE.md).
    assert_finite_positive(
        result, ["serial_s_per_round", "mp_s_per_round", "speedup", "cpu_count"]
    )


def test_bench_suite_appends_json(tmp_path):
    record = {
        "timestamp": "t",
        "quick": True,
        "grouped_round_mp": [],
        "grouped_round_xl": [],
        "mechanism_convergence": [],
    }
    path = write_bench_results(record, label="smoke", output_dir=tmp_path)
    assert path.name == "BENCH_smoke.json"
    path2 = write_bench_results(record, label="smoke", output_dir=tmp_path)
    data = json.loads(path2.read_text())
    assert len(data["runs"]) == 2
