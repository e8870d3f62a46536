"""``tools/kernel_times.py`` on a tiny CNN with a stubbed clock (nothing is timed)."""

from __future__ import annotations

import itertools

from repro.nn.models import MnistCNN
from tools import kernel_times


def test_one_row_per_layer_and_backward_stops_at_the_first_parametric_kernel():
    ticks = itertools.count()
    model = MnistCNN(image_size=8, scale=0.1, seed=0)
    rows = kernel_times.kernel_times(
        model, group=2, batch=3, repeats=3, clock=lambda: 1e-6 * next(ticks)
    )
    assert [row["kernel"] for row in rows] == [
        f"{layer.name}:{type(layer).__name__}" for layer in model.layers
    ]
    assert rows[0]["out_shape"] == [2, 3, 2, 8, 8] and rows[-1]["out_shape"] == [2, 3, 10]
    # Consecutive ticks are 1 µs apart, so every timed call reads exactly 1 µs.
    assert all(abs(row["forward_us"] - 1.0) < 1e-9 for row in rows)
    assert all(abs(row["backward_us"] - 1.0) < 1e-9 for row in rows)


def test_main_prints_the_table(capsys):
    argv = ["--model", "lr", "--params", '{"input_dim": 8, "hidden": 4}']
    assert kernel_times.main(argv + ["--group", "2", "--batch", "3", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "kernel" and lines[-1].split()[0] == "total"
    assert len(lines) == 2 + 5  # header, five layers, total
