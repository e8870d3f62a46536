#!/usr/bin/env python
"""Forward/backward µs of each batched kernel on one ``(GROUP, BATCH)`` tile.

    make kernel-times MODEL=mnist_cnn PARAMS='{"image_size": 8, "scale": 0.1}' GROUP=12 BATCH=32

Builds the engine of a registered model, binds one tile of standard-normal
input and calls every kernel's ``forward`` / ``backward`` directly (median of
``--repeats`` calls): the per-kernel split of ``run_group`` that airbench's
README lists under "Not covered".  Retire it when ROADMAP item 1(b)'s spans exist.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import registry
from repro.nn.batched import BatchedWorkerEngine


def _median_us(call: Callable[[], object], repeats: int, clock: Callable[[], float]):
    """Median µs of ``repeats`` calls, and what the last one returned."""
    samples = []
    for _ in range(repeats):
        start = clock()
        result = call()
        samples.append(clock() - start)
    return 1e6 * statistics.median(samples), result


def kernel_times(model, group, batch, repeats=200, clock=time.perf_counter) -> List[dict]:
    """One ``{"kernel", "out_shape", "forward_us", "backward_us"}`` row per layer."""
    engine = BatchedWorkerEngine(model)
    lane = engine._lanes[0]
    for kernel in lane.params:
        kernel.bind(group, batch, engine.dtype)
        kernel.load(model.get_vector())
    feat = getattr(model, "input_dim", None)
    feat = (feat,) if feat else (model.in_channels, model.image_size, model.image_size)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((group, batch) + feat).astype(engine.dtype)
    rows = []
    for layer, kernel in zip(model.layers, lane.kernels):
        forward_us, h = _median_us(lambda: kernel.forward(h), repeats, clock)
        name = f"{layer.name}:{type(layer).__name__}"
        rows.append({"kernel": name, "out_shape": list(h.shape), "forward_us": forward_us, "backward_us": 0.0})
    grad = rng.standard_normal(h.shape).astype(engine.dtype)
    # Like the engine, stop at the first parametric kernel (it skips its input gradient).
    for row, kernel in reversed(list(zip(rows, lane.kernels))[lane.first_param_index :]):
        row["backward_us"], grad = _median_us(lambda: kernel.backward(grad), repeats, clock)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True, help="a registered model name")
    parser.add_argument("--params", type=json.loads, default={}, help="its kwargs, as JSON")
    for flag, default in (("--group", 12), ("--batch", 32), ("--repeats", 200)):
        parser.add_argument(flag, type=int, default=default)
    args = parser.parse_args(argv)
    model = registry.create("model", args.model, **args.params)
    rows = kernel_times(model, args.group, args.batch, args.repeats)
    totals = {key: sum(row[key] for row in rows) for key in ("forward_us", "backward_us")}
    print(f"{'kernel':<20}{'out shape':<22}{'forward µs':>12}{'backward µs':>13}")
    for row in rows + [{"kernel": "total", "out_shape": "", **totals}]:
        shape = row["out_shape"] and str(tuple(row["out_shape"]))
        print(f"{row['kernel']:<20}{shape:<22}{row['forward_us']:>12.0f}{row['backward_us']:>13.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
