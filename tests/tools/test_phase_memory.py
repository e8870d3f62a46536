"""``tools/phase_memory.py``'s nested spans and stage wrappers, on small allocations."""

from __future__ import annotations

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
    return {name: (depth, live, peak) for depth, name, live, peak in spans.rows}


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
    assert [depth for depth, _, _ in rows.values()] == [0, 1, 1]
    assert rows["stage"][2] - rows["stage"][1] > 7.9e6
    assert rows["phase"][2] >= rows["stage"][2]
    assert rows["later stage"][1] - rows["stage"][1] > 0.79e6


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
