"""Perf-harness smoke test: the legacy harness appends its records.

The XL and convergence tiers run in their own ``make`` smoke jobs; which
path is faster is decided by ``python3 benchmarks/airbench/bench.py
--compare`` (noise-aware, see benchmarks/airbench/README.md) and
``tools/bench_pairs.py``, never by a wall-clock assertion here.
"""

from __future__ import annotations

import json

from repro.experiments.bench import write_bench_results


def test_bench_suite_appends_json(tmp_path):
    record = {
        "timestamp": "t",
        "quick": True,
        "grouped_round_xl": [],
        "mechanism_convergence": [],
    }
    path = write_bench_results(record, label="smoke", output_dir=tmp_path)
    assert path.name == "BENCH_smoke.json"
    path2 = write_bench_results(record, label="smoke", output_dir=tmp_path)
    data = json.loads(path2.read_text())
    assert len(data["runs"]) == 2
