"""Lanes: a tile split across threads trains every member as one lane does.

How ``run_group`` plans a call — conv tiles, the run of active members each
lane trains, the batch dimension the runs share — is checked here on direct
calls against the one-lane result, and against each member trained alone
where the batch shapes allow it, with ``np.array_equal``.  That whole
histories do not move is the ``threads`` axis of
``tests/differential/test_execution_axes.py``.
"""

from __future__ import annotations

import multiprocessing
import sys

import numpy as np
import pytest

from repro import registry
from repro.nn import BatchedWorkerEngine, LogisticRegressionMLP, MnistCNN, batched
from repro.nn.batched import StepTransform

KWARGS = dict(learning_rate=0.2, local_steps=2, batch_size=8, seed=5)


def _data(counts, features=(1, 8, 8), seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n,) + features), rng.integers(0, 10, n)) for n in counts]


def _cnn():
    return MnistCNN(image_size=8, scale=0.1, num_classes=10, seed=0)


def _run(engine, data, ids=None, round_index=3, **overrides):
    ids = list(range(len(data))) if ids is None else ids
    base = np.linspace(-0.1, 0.1, engine.dimension)
    out = np.full((len(ids), engine.dimension), np.nan)
    engine.run_group(ids, [data[w] for w in ids], base, round_index, out=out, **{**KWARGS, **overrides})
    return out


def _split(lanes, count, model, data, **overrides):
    """The same call on one lane and on ``count``; the ``count``-lane engine."""
    lanes(1)
    serial = _run(BatchedWorkerEngine.try_build(model), data, **overrides)
    lanes(count)
    engine = BatchedWorkerEngine.try_build(model)
    split = _run(engine, data, **overrides)
    assert np.array_equal(split, serial)
    assert not np.isnan(split).any()
    return engine, split


def _bounds(roster):
    return [(a0, a1) for a0, a1, _ in roster.runs]


#: Lane count -> the runs of 12, 4 and 5 active members.
RUNS = {
    2: ([(0, 6), (6, 12)], [(0, 2), (2, 4)], [(0, 2), (2, 5)]),
    3: ([(0, 4), (4, 8), (8, 12)], [(0, 1), (1, 2), (2, 4)], [(0, 1), (1, 3), (3, 5)]),
}
LANE_COUNTS = pytest.mark.parametrize("count", sorted(RUNS))


@LANE_COUNTS
def test_a_ragged_conv_group_splits_each_of_its_tiles(lanes, count):
    counts = [3, 9, 5, 12, 8, 2, 7, 11, 4, 6, 10, 1, 9, 3, 0, 5, 12]
    engine, out = _split(lanes, count, _cnn(), _data(counts))
    first, second = engine._rosters.values()
    assert (_bounds(first), _bounds(second)) == RUNS[count][:2]
    assert np.array_equal(out[14], np.linspace(-0.1, 0.1, engine.dimension))
    for roster in (first, second):
        b_max = roster.geo["xb"].shape[1]  # the tile's largest batch, 8
        assert [geo["xb"].shape[:2] for _, _, geo in roster.runs] == [
            (a1 - a0, b_max) for a0, a1 in _bounds(roster)
        ]
    assert len(engine._lanes) == count


@LANE_COUNTS
def test_an_idle_member_inside_a_split_tile_keeps_the_base(lanes, count):
    engine, out = _split(lanes, count, _cnn(), _data([9, 6, 0, 8, 12, 0, 7]))
    (roster,) = engine._rosters.values()
    assert roster.idle == [2, 5] and _bounds(roster) == RUNS[count][2]
    base = np.linspace(-0.1, 0.1, engine.dimension)
    assert np.array_equal(out[[2, 5]], np.stack([base, base]))


@LANE_COUNTS
@pytest.mark.parametrize("counts", [[9, 16, 8, 12, 11, 10], [9, 0, 8, 12, 11, 10]], ids=["all", "idle"])
def test_per_member_transform_rows_follow_their_members(lanes, counts, count):
    """Every member batch is 8, so each member alone runs the group's GEMM shapes."""
    model = LogisticRegressionMLP(input_dim=64, hidden=12, num_classes=10, seed=0)
    offset = np.random.default_rng(1).standard_normal((len(counts), model.dimension)) * 1e-3
    data = _data(counts, (64,))
    engine, out = _split(lanes, count, model, data, transform=StepTransform(0.99, offset))
    (roster,) = engine._rosters.values()
    assert len(roster.runs) == count
    for k in range(len(counts)):
        alone = _run(engine, data, [k], transform=StepTransform(0.99, offset[k]))
        assert np.array_equal(out[k], alone[0])


@LANE_COUNTS
def test_owned_roster_bytes_stay_within_the_budget(lanes, monkeypatch, count):
    data = _data([9, 6, 8, 12, 7, 10, 11, 5], (64,))
    model = LogisticRegressionMLP(input_dim=64, hidden=12, num_classes=10, seed=0)
    budget = 110_000  # about two four-member rosters and their geometries
    monkeypatch.setattr(batched, "_ROSTER_CACHE_BYTES", budget)
    lanes(count)
    engine = BatchedWorkerEngine.try_build(model)
    for ids in ([0, 1, 2, 3], [4, 5, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7], [0, 1, 2, 3]):
        _run(engine, data, ids)
        assert engine._cached_bytes <= budget
        assert engine._cached_bytes == sum(charge for _, charge in engine._cache.values())
        assert engine._rosters
        assert all(len(r.runs) == count for r in engine._rosters.values())


def test_the_gate_splits_conv_groups_of_six_and_keeps_mlp_groups_whole(lanes):
    lanes(2, batched._LANE_MIN_WRITES)
    cnn = BatchedWorkerEngine.try_build(_cnn())
    for size, runs in ((5, [(0, 5)]), (6, [(0, 3), (3, 6)])):
        _run(cnn, _data([40] * size), batch_size=32)
        assert _bounds(next(reversed(cnn._rosters.values()))) == runs
    # fig_mlp's largest group: 40 members, 64-32-32-10, batch 32.
    mlp = BatchedWorkerEngine.try_build(LogisticRegressionMLP(64, 32, 10, seed=0))
    _run(mlp, _data([40] * 40, (64,)), batch_size=32)
    (roster,) = mlp._rosters.values()
    assert _bounds(roster) == [(0, 40)]


def test_more_lanes_than_cores_at_a_short_switch_interval(lanes):
    """Lanes write disjoint rows and their own buffers: forced thread switches
    every few microseconds lose no row."""
    counts = [9, 6, 0, 8, 12, 7, 10, 11, 4, 9, 8, 12, 5, 0, 9, 10]
    data = _data(counts)
    offset = np.random.default_rng(1).standard_normal((len(counts), _cnn().dimension)) * 1e-3
    lanes(1)
    serial = BatchedWorkerEngine.try_build(_cnn())
    lanes(4)
    split = BatchedWorkerEngine.try_build(_cnn())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_index in range(3):
            kw = dict(round_index=round_index, transform=StepTransform(0.99, offset))
            assert np.array_equal(_run(split, data, **kw), _run(serial, data, **kw))
    finally:
        sys.setswitchinterval(interval)


def test_an_error_on_another_lane_reaches_the_caller(lanes, monkeypatch):
    lanes(2)
    engine = BatchedWorkerEngine.try_build(_cnn())
    data = _data([9] * 6)
    _run(engine, data)
    trained = []

    def failing(jobs, *step):
        raise FloatingPointError("lane 1")

    monkeypatch.setattr(engine._lanes[1], "train", failing)
    monkeypatch.setattr(engine._lanes[0], "train", lambda jobs, *step: trained.append(jobs))
    with pytest.raises(FloatingPointError, match="lane 1"):
        _run(engine, data)
    assert len(trained) == 1  # lane 0 finished its share first


def test_lanes_share_no_buffer_they_write(lanes):
    lanes(2)
    engine = BatchedWorkerEngine.try_build(_cnn())
    _run(engine, _data([9] * 8))
    (roster,) = engine._rosters.values()
    (_, _, geo0), (_, _, geo1) = roster.runs
    assert not any(np.shares_memory(geo0[k], geo1[k]) for k in ("xb", "yb", "gidx"))
    zero, one = (lane.params for lane in engine._lanes)
    for a, b in zip(zero, one):
        assert a is not b and not np.shares_memory(a.weight, b.weight)


@pytest.mark.parametrize("name", ["lr", "mnist_cnn", "cifar_cnn", "mini_vgg"])
def test_member_writes_follow_the_forward_shapes(name):
    """The gate sizes a step from ``member_writes``; its shapes are the forward's."""
    params = {"lr": {"input_dim": 64}}.get(name, {"image_size": 8})
    model = registry.create("model", name, seed=0, **params)
    lane = BatchedWorkerEngine.try_build(model)._lanes[0]
    for kernel in lane.params:
        kernel.bind(2, 4, np.float64)
        kernel.load(model.get_vector())
    shape = (64,) if name == "lr" else (model.in_channels, 8, 8)
    h = np.random.default_rng(0).standard_normal((2, 4) + shape)
    for kernel in lane.kernels:
        shape, writes = kernel.member_writes(shape, 4)
        h = kernel.forward(h)
        assert h.shape[2:] == shape and writes >= 0
    assert shape == (model.layers[-1].out_features,)


def test_one_lane_per_process_never_splits(lanes):
    lanes(2)
    batched.use_one_lane()
    engine = BatchedWorkerEngine.try_build(_cnn())
    _run(engine, _data([9] * 8))
    assert _bounds(*engine._rosters.values()) == [(0, 8)] and len(engine._lanes) == 1


_INHERITED = {}


def _in_forked_child():
    engine, data = _INHERITED["engine"], _INHERITED["data"]
    return _run(engine, data, round_index=4)


def test_a_forked_child_builds_its_own_pool(lanes):
    """The child inherits the parent's pool object but none of its threads."""
    lanes(2)
    engine = BatchedWorkerEngine.try_build(_cnn())
    data = _data([9, 6, 8, 12, 7, 10])
    _run(engine, data)  # the parent's lane thread is running now
    _INHERITED.update(engine=engine, data=data)
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(_in_forked_child).get(timeout=60)
    finally:
        _INHERITED.clear()
    assert np.array_equal(child, _run(engine, data, round_index=4))
