"""``tools/phase_memory.py``'s nested spans, resident columns and stage wrappers,
on small allocations."""

from __future__ import annotations

import mmap
import tracemalloc
import types

import numpy as np

from tools import phase_memory


def _traced(body):
    spans = phase_memory.TracedSpans()
    tracemalloc.start()
    try:
        body(spans)
    finally:
        tracemalloc.stop()
    return {name: (depth, *columns) for depth, name, *columns in spans.rows}


def test_a_stage_peak_stays_in_its_phase_peak():
    kept = []

    def body(spans):
        with spans.span("phase"):
            with spans.span("stage"):
                np.ones(1_000_000)  # 8 MB, dropped at once
            with spans.span("later stage"):
                kept.append(np.ones(100_000))

    rows = _traced(body)
    assert list(rows) == ["phase", "stage", "later stage"]
    assert [depth for depth, *_ in rows.values()] == [0, 1, 1]
    assert rows["stage"][2] - rows["stage"][1] > 7.9e6
    assert rows["phase"][2] >= rows["stage"][2]
    assert rows["later stage"][1] - rows["stage"][1] > 0.79e6


def test_each_span_reads_the_resident_mib_after_it():
    """VmRSS and VmHWM in MiB: 40 MiB of fresh pages held through a span show
    in both (an anonymous map, so no freed heap memory can serve them)."""
    size, held = 40 << 20, []

    def body(spans):
        with spans.span("phase"):
            held.append(mmap.mmap(-1, size))
            for offset in range(0, size, mmap.PAGESIZE):
                held[0][offset] = 1

    rss, hwm = phase_memory.resident_mib()
    try:
        ((_, _, _, rss_after, hwm_after),) = _traced(body).values()
    finally:
        held[0].close()
    assert 0 < rss <= hwm
    assert rss_after >= rss + 38 and hwm_after >= rss_after


def test_staged_wraps_calls_and_first_rows_then_puts_them_back():
    def rows(n):
        yield from range(n)

    owner = types.SimpleNamespace(work=lambda n: np.ones(n), rows=rows)
    table = {"a": lambda: 1}
    originals = (owner.work, owner.rows, table["a"])
    stages = [(owner, "work", "work"), (owner, "rows", "first row"), (table, None, "table")]

    def body(spans):
        with phase_memory.staged(spans, stages):
            assert owner.work(10).size == 10 and table["a"]() == 1
            assert list(owner.rows(3)) == [0, 1, 2]
            assert list(owner.rows(0)) == []

    assert list(_traced(body)) == ["work", "table", "first row"]
    assert (owner.work, owner.rows, table["a"]) == originals


def test_passes_print_one_resident_row_per_pass(monkeypatch, capsys):
    """``--passes 2`` on ``scale_1m`` at its smoke size (4096 workers): the
    first pass's phase table, then VmRSS and VmHWM after each pass."""
    from benchmarks.airbench import measure

    monkeypatch.setattr(phase_memory, "load_workload", lambda name: measure.load_workload(name, True))
    phase_memory.main(["--workload", "scale_1m", "--passes", "2"])
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("") + 1 :]
    assert [line.split()[0] for line in lines[2:13]] == [
        "dataset", "latency", "channel", "population", "trainer", "power-control",
        "grouping", "grouping", "scheduler", "run", "first",
    ]
    assert table[0].split() == ["pass", "VmRSS", "VmHWM"]
    rows = [line.split() for line in table[1:]]
    assert [row[0] for row in rows] == ["1", "2"]
    for _, rss, hwm in rows:
        assert 0 < float(rss) <= float(hwm)
    assert float(rows[0][2]) <= float(rows[1][2])  # the high-water mark never falls
