"""Rosters: store-backed gathers equal concatenated ones, and the cache is bounded.

A roster whose members' data are row windows of one shared store gathers
straight from the store; a roster over private per-worker arrays gathers
from one concatenation of them.  Both must fill ``out`` with the same bits
(``np.array_equal`` throughout), and the roster cache is an LRU bounded by
the bytes it owns.  That its size never shows in a history is an axis of
``tests/differential/test_execution_axes.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.population import SharedDatasetStore
from repro.data import make_mnist_like
from repro.experiments import Scenario
from repro.fl.registry import build_trainer
from repro.nn import BatchedWorkerEngine, LogisticRegressionMLP, MnistCNN, parameter_dtype
from repro.nn import batched

KWARGS = dict(learning_rate=0.2, local_steps=3, batch_size=16, seed=11)


def _store(windows, features=(16,), classes=5, dtype=np.float64, seed=0, rows=64):
    rng = np.random.default_rng(seed)
    return SharedDatasetStore(
        x=rng.standard_normal((rows,) + features).astype(dtype),
        y=rng.integers(0, classes, rows),
        starts=np.array([s for s, _ in windows]),
        stops=np.array([e for _, e in windows]),
        num_classes=classes,
    )


def _mlp(dtype="float64"):
    with parameter_dtype(dtype):
        return LogisticRegressionMLP(input_dim=16, hidden=12, num_classes=5, seed=0)


def _run(model, ids, data, round_index=3, **overrides):
    engine = BatchedWorkerEngine.try_build(model)
    base = model.get_vector()
    out = np.full((len(ids), engine.dimension), np.nan, dtype=base.dtype)
    engine.run_group(ids, data, base, round_index, out=out, **{**KWARGS, **overrides})
    return engine, out


def _both_ways(model, store, ids, **overrides):
    """``run_group`` over the store's lazy sequence and over plain tuples."""
    engine, lazy = _run(model, ids, store.shards()[ids], **overrides)
    _, plain = _run(model, ids, [tuple(store.shard(w)) for w in ids], **overrides)
    assert np.array_equal(lazy, plain)
    assert not np.isnan(lazy).any()
    return engine, lazy


def test_equal_windows_reference_the_store():
    store = _store([(0, 20), (10, 30), (44, 64), (3, 23)])
    engine, _ = _both_ways(_mlp(), store, [2, 0, 3])
    (roster,) = engine._rosters.values()
    assert roster.x is store.x and roster.y is store.y  # referenced, not copied
    assert roster.offsets == [44, 0, 3] and not roster.geo["ragged"]


def test_ragged_windows_zero_their_pad_rows():
    store = _store([(0, 5), (5, 25), (20, 60), (60, 64)])
    engine, out = _both_ways(_mlp(), store, [0, 1, 2, 3])
    (roster,) = engine._rosters.values()
    assert roster.geo["ragged"] and roster.batches == [5, 16, 16, 4]
    # Pad positions of the batch tensor were zeroed after the last gather.
    assert not roster.geo["xb"][roster.geo["pad"]].any()
    assert not roster.geo["yb"][roster.geo["pad"]].any()
    assert len(np.unique(out, axis=0)) == 4


def test_empty_member_is_an_idle_row():
    store = _store([(0, 20), (7, 7), (30, 50)])
    model = _mlp()
    engine, out = _both_ways(model, store, [0, 1, 2])
    (roster,) = engine._rosters.values()
    assert roster.idle == [1] and roster.active == [0, 2]
    assert np.array_equal(out[1], model.get_vector())
    # Nobody holds data: every row is the base vector, nothing is gathered.
    _, idle = _both_ways(model, store, [1])
    assert np.array_equal(idle[0], model.get_vector())


def test_a_member_trains_alike_in_rosters_of_one_batch_dimension():
    """Member 0 (5 samples) pads to 16 beside member 1 alone or beside 1 and 2."""
    store = _store([(0, 5), (5, 25), (20, 60)])
    _, pair = _both_ways(_mlp(), store, [0, 1])
    _, full = _both_ways(_mlp(), store, [0, 1, 2])
    assert np.array_equal(pair, full[:2])


def test_float32_engine_converts_a_float64_store_once():
    store = _store([(0, 20), (10, 30), (44, 64), (3, 23)])
    model = _mlp("float32")
    engine, out = _both_ways(model, store, [0, 1])
    assert out.dtype == np.float32
    converted = engine._store_rows
    assert converted[0] is store.x and converted[1].dtype == np.float32
    base = model.get_vector()
    engine.run_group(
        [2, 3], store.shards()[[2, 3]], base, 4, out=np.empty_like(out), **KWARGS
    )
    assert engine._store_rows is converted  # once per engine, not per roster
    assert all(r.x is converted[1] for r in engine._rosters.values())


def test_store_over_a_reshaped_view():
    """``Dataset.flattened()``: ``x[s:e].base`` is the image array, not ``store.x``."""
    dataset = make_mnist_like(num_train=96, num_test=8, image_size=8, seed=2).flattened()
    store = SharedDatasetStore.replicated(dataset, num_workers=40, shard_size=24, stride=5)
    assert store.x.base is not None and store.shard(3).x.base is not store.x
    with parameter_dtype("float64"):
        model = LogisticRegressionMLP(input_dim=64, hidden=12, num_classes=10, seed=0)
    engine, _ = _both_ways(model, store, [3, 17, 39, 8])
    (roster,) = engine._rosters.values()
    assert np.shares_memory(roster.x, store.x)


def test_conv_tiles_slice_the_lazy_sequence():
    store = _store([(k, k + 12) for k in range(0, 40, 2)], features=(1, 8, 8), classes=10)
    model = MnistCNN(image_size=8, scale=0.15, num_classes=10, seed=0)
    ids = list(range(store.num_workers))
    assert len(ids) > batched._CONV_GROUP_TILE
    engine, _ = _both_ways(model, store, ids, local_steps=1)
    assert len(engine._rosters) > 1
    assert all(r.x is store.x for r in engine._rosters.values())


def test_plain_tuples_are_concatenated_not_referenced():
    store = _store([(0, 20), (10, 30)])
    engine, _ = _run(_mlp(), [0, 1], [tuple(store.shard(w)) for w in (0, 1)])
    (roster,) = engine._rosters.values()
    assert not np.shares_memory(roster.x, store.x)
    assert roster.x.shape == (40, 16) and roster.offsets == [0, 20]


# ----------------------------------------------------------------------
# Rosters and geometries share one least-recently-used cache bounded in bytes
# ----------------------------------------------------------------------
def _plain(store, ids):
    return [tuple(store.shard(w)) for w in ids]


def _charged(engine):
    """The cache's byte count, checked against its entries' charges."""
    assert engine._cached_bytes == sum(charge for _, charge in engine._cache.values())
    assert engine._cached_bytes <= batched._ROSTER_CACHE_BYTES
    return engine._cached_bytes


def test_roster_cache_evicts_the_least_recently_used(monkeypatch):
    store = _store([(0, 20), (10, 30), (44, 64), (3, 23)])
    model = _mlp()
    engine = BatchedWorkerEngine.try_build(model)
    base = model.get_vector()

    def visit(ids):
        out = np.empty((len(ids), engine.dimension))
        engine.run_group(ids, _plain(store, ids), base, 1, out=out, **KWARGS)
        _charged(engine)
        return out

    first = visit([0, 1])
    visit([2, 3])
    assert [key[0] for key in engine._rosters] == [(0, 1), (2, 3)]
    # Two members' 20 float64 rows of 16 and a label each, and their index
    # lists; both rosters' batches are (16, 16), so they share one geometry.
    pair = 2 * 20 * (16 * 8 + 8) + 8 * 5 * 2
    assert [r.nbytes for r in engine._rosters.values()] == [pair, pair]
    (geometry,) = [c for key, (_, c) in engine._cache.items() if key[0] == "geometry"]
    assert engine._cached_bytes == 2 * pair + geometry
    monkeypatch.setattr(batched, "_ROSTER_CACHE_BYTES", 2 * pair + geometry)
    visit([0, 1])  # a hit moves the roster to the recent end
    assert [key[0] for key in engine._rosters] == [(2, 3), (0, 1)]
    visit([1, 2])  # a third roster evicts the least recently used
    assert [key[0] for key in engine._rosters] == [(0, 1), (1, 2)]
    assert np.array_equal(visit([0, 1]), first)
    assert np.array_equal(visit([2, 3]), _run(model, [2, 3], _plain(store, [2, 3]), 1)[1])
    assert len(engine._rosters) == 2


def test_store_backed_rosters_own_no_data_but_are_charged_their_lists(monkeypatch):
    store = _store([(0, 20), (10, 30), (44, 64), (3, 23)])
    model = _mlp()
    engine = BatchedWorkerEngine.try_build(model)
    runs = ([0, 1], [2, 3], [1, 2])
    for ids in runs:
        out = np.empty((len(ids), engine.dimension))
        engine.run_group(ids, store.shards()[ids], model.get_vector(), 1, out=out, **KWARGS)
    assert [r.nbytes for r in engine._rosters.values()] == [8 * 5 * 2] * 3
    monkeypatch.setattr(batched, "_ROSTER_CACHE_BYTES", 0)
    for ids in runs:
        out = np.empty((len(ids), engine.dimension))
        engine.run_group(ids, store.shards()[ids], model.get_vector(), 1, out=out, **KWARGS)
        assert _charged(engine) == 0 and not engine._cache


@pytest.mark.parametrize("materialization", ["eager", "lazy"])
def test_a_roster_hit_slices_no_tile_data(materialization):
    """A tile's data, a shard sequence or a plain list, is sliced on a roster miss only."""
    store = _store([(0, 20), (10, 30), (44, 64), (3, 23)])
    model = _mlp()
    engine = BatchedWorkerEngine.try_build(model)
    slices = []
    lazy = materialization == "lazy"

    class Counting(type(store.shards()) if lazy else list):
        def __getitem__(self, index):
            slices.append(index)
            return super().__getitem__(index)

    data = Counting(store) if lazy else Counting(tuple(store.shard(w)) for w in range(4))
    out = np.empty((4, engine.dimension))
    for _ in range(2):
        engine.run_group([0, 1, 2, 3], data, out, [1, 1, 2, 2], out=out, **KWARGS)
    assert slices == [slice(0, 2), slice(2, 4)]


def test_geometries_follow_the_rosters_using_them(monkeypatch):
    """A geometry leaves the cache only after every roster using it."""
    store = _store([(0, 5), (5, 25), (20, 60), (60, 64)])
    model = _mlp()
    engine = BatchedWorkerEngine.try_build(model)
    for ids in ([0, 1], [2, 3], [1, 2], [0, 1]):
        out = np.empty((len(ids), engine.dimension))
        engine.run_group(ids, _plain(store, ids), model.get_vector(), 1, out=out, **KWARGS)
        keys = list(engine._cache)
        for position, key in enumerate(keys):
            if key[0] == "roster":
                roster = engine._cache[key][0]
                assert all(keys.index(g["key"]) > position for g in roster.geometries())
    # Batches (5, 16), (16, 4) and (16, 16): three geometries, all in use.
    assert sum(key[0] == "geometry" for key in engine._cache) == 3


# ----------------------------------------------------------------------
# One call over several rosters, and buffers sized by capacity
# ----------------------------------------------------------------------
def test_a_call_over_several_rosters_equals_a_call_per_roster():
    """Per-member bases and round keys: the rosters of the cohorts, no other."""
    store = _store([(k, k + 20) for k in range(0, 44, 4)])
    model = _mlp()
    rng = np.random.default_rng(1)
    cohorts = [([0, 1, 2], 3), ([5, 4], 7), ([9, 6, 8], 8)]
    bases = [model.get_vector() + 0.1 * rng.standard_normal(model.dimension) for _ in cohorts]
    alone = []
    for (ids, key), base in zip(cohorts, bases):
        out = np.empty((len(ids), model.dimension))
        engine = BatchedWorkerEngine.try_build(model)
        alone.append(engine.run_group(ids, _plain(store, ids), base, key, out=out, **KWARGS))
    ids = [w for members, _ in cohorts for w in members]
    keys = [key for members, key in cohorts for _ in members]
    out = np.concatenate([np.tile(b, (len(m), 1)) for (m, _), b in zip(cohorts, bases)])
    engine = BatchedWorkerEngine.try_build(model)
    engine.run_group(ids, _plain(store, ids), out, keys, out=out, **KWARGS)
    assert np.array_equal(out, np.concatenate(alone))
    assert [key[0] for key in engine._rosters] == [tuple(m) for m, _ in cohorts]
    # Batches (16, 16, 16) and (16, 16); the call adds one geometry sized by capacity.
    assert sum(key[0] == "geometry" for key in engine._cache) == 3


def _owned(node, found=None):
    """The arrays ``node`` holds, however deep in dicts, lists and tuples: by owner."""
    found = {} if found is None else found
    if isinstance(node, np.ndarray):
        owner = node if node.base is None else node.base
        found[id(owner)] = owner
    elif isinstance(node, (dict, list, tuple)):
        for item in node.values() if isinstance(node, dict) else node:
            _owned(item, found)
    return found


@pytest.mark.parametrize("model", ["lr", "mnist_cnn"])
def test_kernel_buffers_do_not_multiply_with_group_size(model):
    """Fault survivors, merged cohorts and partial evaluation blocks vary ``G``
    call by call; every kernel holds one set of buffers per padded batch, as
    after a single training call and a single evaluation."""
    params = {"lr": {"input_dim": 64, "hidden": 16}, "mnist_cnn": {"image_size": 8, "scale": 0.1}}
    scenario = Scenario.default().with_(
        num_workers=16,
        data={"name": "synthetic-mnist", "flatten": model == "lr",
              "params": {"num_train": 192, "num_test": 32, "image_size": 8}},
        model={"name": model, "params": params[model]},
        partition="iid",  # every batch is 8: one padded batch
        mechanism="air_fedga",
        training={"batch_size": 8, "max_rounds": 40, "max_eval_samples": 32},
        faults={"clientstate": {"name": "dropout-rejoin",
                                "params": {"dropout_prob": 0.3, "rejoin_after": 1}}},
    )  # fmt: skip
    experiment = scenario.build_experiment()
    with build_trainer("air_fedga", experiment) as trainer:
        sizes, run_group = set(), trainer._engine.run_group

        def watched(worker_ids, *args, **kwargs):
            sizes.add(len(worker_ids))
            return run_group(worker_ids, *args, **kwargs)

        trainer._engine.run_group = watched
        trainer.run(max_rounds=40)
    assert len(sizes) >= 4
    single = BatchedWorkerEngine.try_build(experiment.model_factory())
    x, y = trainer._worker_data[0]
    single.run_group([0], [(x, y)], trainer.global_vector, 1, out=np.empty((1, single.dimension)),
                     learning_rate=0.1, local_steps=1, batch_size=8, seed=0)  # fmt: skip
    single.evaluate(trainer._eval_block, trainer._eval_x, trainer._eval_y)
    for kernel, reference in zip(trainer._engine._lanes[0].kernels, single._lanes[0].kernels):
        assert len(_owned(vars(kernel))) == len(_owned(vars(reference))), type(kernel).__name__


def _dynamic_history(hook, rounds=300, watch=lambda engine: None):
    scenario = Scenario.default().with_(num_workers=40, mechanism="dynamic")
    experiment = scenario.build_experiment()
    with build_trainer(scenario.mechanism.name, experiment, **scenario.mechanism.params) as t:
        hook(t)
        engine, run_group = t._engine, t._engine.run_group

        def watched(*args, **kwargs):
            out = run_group(*args, **kwargs)
            watch(engine)
            return out

        engine.run_group = watched
        return json.dumps(t.run(max_rounds=rounds).to_dict(), sort_keys=True), engine


@pytest.mark.parametrize("materialization", ["eager", "lazy"])
def test_a_long_dynamic_run_stays_within_a_small_budget(
    monkeypatch, eager_copies, materialization
):
    """``dynamic`` draws a new roster nearly every round; both caches stay
    bounded, whether the rosters own copies of their members' samples or
    gather from the store."""
    hook = eager_copies if materialization == "eager" else lambda trainer: None
    unbounded, engine = _dynamic_history(hook)
    kinds = [key[0] for key in engine._cache]
    assert kinds.count("roster") == 300 and kinds.count("geometry") > 250
    budget = 2**20
    monkeypatch.setattr(batched, "_ROSTER_CACHE_BYTES", budget)
    sizes = []
    bounded, engine = _dynamic_history(hook, watch=lambda e: sizes.append(_charged(e)))
    assert bounded == unbounded
    assert len(sizes) == 300 and max(sizes) <= budget
    assert len(engine._cache) < 60
