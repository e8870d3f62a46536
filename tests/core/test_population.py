"""Tests for the population-scale worker state surface (repro.core.population)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.config import AirFedGAConfig
from repro.core import grouping
from repro.core.grouping import GroupingProblem, contiguous_grouping, tier_grouping
from repro.core.mechanism import GroupAsyncScheduler
from repro.core.population import (
    ClassCountView,
    Population,
    ShardView,
    SharedDatasetStore,
    StackPool,
    WorkerStateTable,
)
from repro.data.partition import Partition, partition_iid, partition_label_skew
from repro.sim.latency import build_uniform_latency

from oracle.data import legacy_subset
from oracle.population import class_count_table


def _dataset(num_train=200, image_size=8, seed=0):
    return registry.create(
        "dataset",
        "synthetic-mnist",
        num_train=num_train,
        num_test=40,
        image_size=image_size,
        seed=seed,
    ).flattened()


# ----------------------------------------------------------------------
# WorkerStateTable
# ----------------------------------------------------------------------
def test_state_table_sizes_bit_identical_to_legacy_ops():
    raw = np.array([3, 5, 2, 9], dtype=np.int64)
    table = WorkerStateTable(raw_sizes=raw)
    # Legacy trainer init: astype(float64), conditional 1e-9 floor,
    # float(sum) normalization.  All positive -> no floor applied.
    legacy = raw.astype(np.float64)
    assert table.sizes.dtype == np.float64
    np.testing.assert_array_equal(table.sizes, legacy)
    assert table.total_size == float(legacy.sum())


def test_state_table_floors_nonpositive_sizes():
    table = WorkerStateTable(raw_sizes=np.array([0, 4], dtype=np.int64))
    np.testing.assert_array_equal(
        table.sizes, np.maximum(np.array([0.0, 4.0]), 1e-9)
    )


def test_state_table_from_partition_matches_partition_sizes():
    dataset = _dataset()
    partition = partition_iid(dataset, num_workers=8, seed=0)
    latency = build_uniform_latency(8, base_time=2.0, heterogeneity_seed=1, seed=2)
    table = WorkerStateTable.from_partition(partition, latency=latency)
    np.testing.assert_array_equal(table.sizes, partition.data_sizes())
    np.testing.assert_array_equal(table.latencies, latency.nominal)


def test_state_table_recorders():
    table = WorkerStateTable(np.full(6, 4))
    members = np.array([0, 2, 4], dtype=np.int64)
    table.record_dispatch(members)
    table.record_dispatch(members)
    table.record_unavailable(np.array([1], dtype=np.int64))
    table.record_dropped(np.array([], dtype=np.int64))  # empty is a no-op
    table.record_commit(members, staleness=3)
    assert table.dispatches.tolist() == [2, 0, 2, 0, 2, 0]
    assert table.unavailable.tolist() == [0, 1, 0, 0, 0, 0]
    assert table.dropped.sum() == 0
    assert table.staleness[members].tolist() == [3, 3, 3]
    summary = table.counters_summary()
    assert summary["dispatches"] == 6
    assert summary["max_staleness"] == 3
    assert table.nbytes > 0


def test_state_table_rejects_bad_shapes():
    with pytest.raises(ValueError):
        WorkerStateTable(raw_sizes=np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="latencies shape"):
        WorkerStateTable(
            raw_sizes=np.array([1, 2]), latencies=np.array([1.0])
        )


# ----------------------------------------------------------------------
# SharedDatasetStore
# ----------------------------------------------------------------------
def test_from_partition_shards_match_legacy_subset_and_are_views():
    dataset = _dataset()
    partition = partition_label_skew(
        dataset, num_workers=10, labels_per_worker=2, seed=0
    )
    store = SharedDatasetStore.from_partition(dataset, partition)
    for w in range(partition.num_workers):
        x_legacy, y_legacy = legacy_subset(dataset, partition.worker_indices(w))
        shard = store.shard(w)
        np.testing.assert_array_equal(shard.x, x_legacy)
        np.testing.assert_array_equal(shard.y, y_legacy)
        # Zero-copy: slice views into the one shared store.
        assert np.shares_memory(shard.x, store.x)
        assert np.shares_memory(shard.y, store.y)
    np.testing.assert_array_equal(store.sizes, partition.data_sizes())
    np.testing.assert_array_equal(ClassCountView(store), partition.class_counts())


def test_replicated_store_aliases_dataset_and_overlaps():
    dataset = _dataset(num_train=50)
    store = SharedDatasetStore.replicated(
        dataset, num_workers=200, shard_size=16, stride=3
    )
    assert store.x is dataset.x_train  # zero sample copies
    assert store.num_workers == 200
    np.testing.assert_array_equal(store.sizes, np.full(200, 16))
    shard = store.shard(7)
    assert isinstance(shard, ShardView)
    assert len(shard.x) == 16
    assert np.shares_memory(shard.x, dataset.x_train)
    # Class counts stay correct for overlapping windows (brute force check).
    counts = ClassCountView(store)
    for w in (0, 3, 199):
        expected = np.bincount(
            store.y[store.starts[w]:store.starts[w] + store.sizes[w]], minlength=dataset.num_classes
        )
        np.testing.assert_array_equal(counts[w], expected)


def _bincount_histograms(store):
    return np.array(
        [
            np.bincount(store.y[s:s + d], minlength=store.num_classes)
            for s, d in zip(store.starts.tolist(), store.sizes.tolist())
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize("stride", [1, 3, 80])
def test_class_counts_equal_per_worker_bincount_replicated(stride):
    """Overlapping windows; 5000 workers over 75 window starts, so starts wrap.
    A population with no partition serves its counts as the store's view."""
    dataset = _dataset(num_train=90)
    population = Population.replicated(dataset, num_workers=5000, shard_size=16, stride=stride)
    store, counts = population.store, population.class_counts()
    assert isinstance(counts, ClassCountView) and counts.dtype == np.int32
    assert counts.shape == (5000, dataset.num_classes)
    table = np.asarray(counts)
    assert table.shape == counts.shape and table.dtype == np.int32
    assert np.array_equal(table, _bincount_histograms(store))
    assert np.array_equal(table, class_count_table(store))
    assert counts.totals().dtype == np.int64
    assert np.array_equal(counts.totals(), table.sum(axis=0))


def test_class_count_view_indexes_like_the_table():
    """An id, an id array or a slice of rows, as the table's rows."""
    dataset = _dataset(num_train=90)
    store = SharedDatasetStore.replicated(dataset, num_workers=300, shard_size=16, stride=7)
    counts, table = ClassCountView(store), class_count_table(store).astype(np.int64)
    ids = np.array([299, 0, 17, 17, 5], dtype=np.int32)
    for key in (3, -1, ids, slice(10, 90), slice(None), slice(290, 400)):
        assert np.array_equal(counts[key], table[key]), key
        assert np.shape(counts[key]) == np.shape(table[key]), key


@pytest.mark.parametrize("longest", [255, 256, 65_535, 65_536])
def test_class_counts_hold_the_longest_window(longest):
    """Worker 0's window holds one class only, so its count is the longest
    window, past what uint8 and uint16 hold."""
    labels = np.random.default_rng(longest).integers(0, 3, size=longest + 7)
    labels[:longest] = 0
    store = SharedDatasetStore(
        x=np.zeros((labels.size, 1)),
        y=labels,
        starts=np.array([0, 7, 2, 4]),
        sizes=np.array([longest, longest, 7, 0]),
        num_classes=3,
    )
    counts = ClassCountView(store)
    assert counts[0][0] == longest
    assert np.array_equal(counts, _bincount_histograms(store))


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=40),
    windows=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=30),
)
def test_class_count_view_counts_are_non_negative(labels, windows):
    """Any windows in range, empty ones included: every count is a
    non-negative window histogram, and the totals are their column sums."""
    n = len(labels)
    starts = [min(s, n) for s, _ in windows]
    sizes = [min(d, n - s) for s, (_, d) in zip(starts, windows)]
    store = SharedDatasetStore(
        x=np.zeros((n, 1)), y=np.array(labels), starts=np.array(starts),
        sizes=np.array(sizes), num_classes=5,
    )
    counts = ClassCountView(store)
    table = np.asarray(counts)
    assert table.min() >= 0
    assert np.array_equal(table, _bincount_histograms(store))
    assert np.array_equal(counts.totals(), table.sum(axis=0))


def test_class_counts_equal_per_worker_bincount_from_partition():
    dataset = _dataset()
    partition = partition_label_skew(dataset, num_workers=10, labels_per_worker=2, seed=0)
    store = SharedDatasetStore.from_partition(dataset, partition)
    assert np.array_equal(ClassCountView(store), _bincount_histograms(store))


def test_class_counts_equal_per_worker_bincount_with_empty_workers():
    dataset = _dataset()
    order = np.random.default_rng(0).permutation(dataset.num_train)
    empty = np.empty(0, dtype=np.int64)
    partition = Partition(
        [empty, order[:50], empty, order[50:51], order[51:], empty],
        dataset.num_classes,
        dataset.y_train,
    )
    store = SharedDatasetStore.from_partition(dataset, partition)
    counts = ClassCountView(store)
    assert np.array_equal(counts, _bincount_histograms(store))
    assert np.array_equal(counts, partition.class_counts())
    assert not counts[[0, 2, 5]].any()


@pytest.mark.parametrize(
    "labels", [[0, 1, 2, 5, -1, 1], [0, 1, 2, 1, 3, 1], [-1, 1, 2, 0, 1, 1]]
)
def test_class_counts_reject_out_of_range_labels(labels):
    """Worker 1 holds three samples; it must not get a histogram summing to 1.
    The view checks the labels before it builds its prefix sum."""
    store = SharedDatasetStore(
        x=np.zeros((6, 2)),
        y=np.array(labels),
        starts=np.array([0, 3]),
        sizes=np.array([3, 3]),
        num_classes=3,
    )
    with pytest.raises(ValueError, match="partition labels out of range for num_classes"):
        ClassCountView(store)


@pytest.mark.parametrize(
    "strategy", [contiguous_grouping, tier_grouping], ids=["contiguous", "tier"]
)
def test_grouping_setup_memory_at_400k_workers(strategy):
    """No (N, K) label table and no int64 member order: the traced peak of
    the label counts, the grouping problem and a grouping stays below one
    int32 id per worker plus one block of scratch, k + 2 eight-byte words
    per member of a block (its class counts, window starts and ends: 6.3 MB
    here; a uint8 table alone is 4 MB and an int64 order 3.2 MB).  The
    problem's class totals take one pass over the windows, a block of int64
    window starts and ends at a time."""
    from repro.core import population

    dataset = _dataset(num_train=256)
    n, k = 400_000, dataset.num_classes
    store = SharedDatasetStore.replicated(dataset, num_workers=n, shard_size=32)
    sizes, times = np.full(n, 32.0), np.random.default_rng(0).uniform(1.0, 2.0, n)
    tracemalloc.start()
    try:
        problem = GroupingProblem(
            data_sizes=sizes,
            class_counts=ClassCountView(store),
            local_times=times,
            model_dimension=100,
        )
        problem_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        result = strategy(problem, n // 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.num_groups == n // 64
    assert all(g.dtype == np.int32 for g in result.groups)
    assert problem_peak < population._BLOCK * 16
    assert peak < n * 4 + grouping._BLOCK_MEMBERS * 8 * (k + 2)


def test_class_counts_zero_length_windows():
    dataset = _dataset(num_train=30)
    store = SharedDatasetStore(
        x=dataset.x_train,
        y=dataset.y_train,
        starts=np.array([0, 5, 5, 30, 12]),
        sizes=np.array([5, 0, 25, 0, 0]),
        num_classes=dataset.num_classes,
    )
    counts = ClassCountView(store)
    assert np.array_equal(counts, _bincount_histograms(store))
    assert not counts[[1, 3, 4]].any()


def test_shard_sequence_subsets_stay_lazy_and_store_backed():
    dataset = _dataset(num_train=40)
    store = SharedDatasetStore.replicated(dataset, num_workers=30, shard_size=8)
    seq = store.shards()
    assert seq.store is store and seq.ids is None
    picked = seq[[7, 2, 29]]
    assert picked.store is store and picked.ids.tolist() == [7, 2, 29]
    assert len(picked) == 3
    for view, w in zip(picked, (7, 2, 29)):
        assert np.array_equal(view.x, store.shard(w).x)
        assert np.shares_memory(view.x, store.x)
    # A slice of a subset indexes the subset, not the store.
    assert picked[1:].ids.tolist() == [2, 29]
    assert seq[3:6].ids.tolist() == [3, 4, 5]
    assert np.array_equal(picked[-1].y, store.shard(29).y)


def test_store_shard_sequence_is_lazy():
    dataset = _dataset(num_train=40)
    store = SharedDatasetStore.replicated(dataset, num_workers=30, shard_size=8)
    seq = store.shards()
    assert len(seq) == 30
    x, y = seq[4]  # tuple unpacking as legacy worker_data[i]
    assert np.shares_memory(x, store.x)
    assert np.shares_memory(seq[-1].x, store.x)
    assert len(seq[2:5]) == 3


def test_store_validates_windows():
    dataset = _dataset(num_train=20)
    with pytest.raises(ValueError, match="shard_size"):
        SharedDatasetStore.replicated(dataset, num_workers=4, shard_size=21)
    with pytest.raises(ValueError, match="out of bounds"):
        SharedDatasetStore(
            x=dataset.x_train,
            y=dataset.y_train,
            starts=np.array([0]),
            sizes=np.array([999]),
            num_classes=10,
        )
    store = SharedDatasetStore.replicated(dataset, num_workers=4, shard_size=5)
    with pytest.raises(ValueError, match="invalid worker id"):
        store.shard(4)


def test_replicated_store_holds_one_int32_start_per_worker():
    """Window bytes: an int32 start per worker and one int64 size (a
    read-only zero-stride view, the one the state table reads)."""
    population = Population.replicated(_dataset(num_train=256), num_workers=1000, shard_size=32)
    store = population.store
    assert store.starts.dtype == np.int32
    assert store.sizes.strides == (0,) and store.sizes.tolist() == [32] * 1000
    assert store.nbytes - store.x.nbytes - store.y.nbytes <= 4 * 1000 + 8
    with pytest.raises(ValueError, match="read-only"):
        store.sizes[3] = 1
    np.testing.assert_array_equal(population.state.sizes, store.sizes)


def test_replicated_store_is_built_in_blocks():
    """The starts are the one O(N) allocation of a replicated store: its
    traced peak stays below 1.5 int32 per worker at 1M workers."""
    dataset = _dataset(num_train=256)
    tracemalloc.start()
    try:
        store = SharedDatasetStore.replicated(dataset, num_workers=1_000_000, shard_size=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.starts[-1] == 999_999 % 225
    assert peak < 6 * 1_000_000


def test_store_nbytes_counts_resident_bytes():
    dataset = _dataset(num_train=60)
    partition = partition_label_skew(dataset, num_workers=6, labels_per_worker=2, seed=0)
    store = SharedDatasetStore.from_partition(dataset, partition)
    assert store.starts.dtype == np.int32 and store.sizes.dtype == np.int64
    assert store.nbytes == store.x.nbytes + store.y.nbytes + 6 * (4 + 8)


@pytest.mark.parametrize("block", [3, 7])
def test_window_walks_cross_block_edges(monkeypatch, block):
    """Starts, bounds check and class counts are walked in blocks of workers."""
    from repro.core import population

    dataset = _dataset(num_train=90)
    expected = SharedDatasetStore.replicated(dataset, num_workers=40, shard_size=16, stride=7)
    monkeypatch.setattr(population, "_BLOCK", block)
    store = SharedDatasetStore.replicated(dataset, num_workers=40, shard_size=16, stride=7)
    assert np.array_equal(store.starts, expected.starts)
    counts = ClassCountView(store)
    assert np.array_equal(counts, _bincount_histograms(store))
    assert np.array_equal(counts.totals(), _bincount_histograms(store).sum(axis=0))
    starts, sizes = np.zeros(20, dtype=np.int64), np.ones(20, dtype=np.int64)
    sizes[-1] = 91  # only the last block's window runs past the rows
    with pytest.raises(ValueError, match="out of bounds"):
        SharedDatasetStore(dataset.x_train, dataset.y_train, starts, sizes, 10)


@pytest.mark.parametrize(
    "starts, sizes",
    [([0.0, 1.0], [1, 1]), ([0, 1], [1.0, 1.0]), ([-1, 0], [1, 1]), ([0, 1], [1, -1])],
    ids=["float-starts", "float-sizes", "negative-start", "negative-size"],
)
def test_store_refuses_bad_windows(starts, sizes):
    with pytest.raises(ValueError):
        SharedDatasetStore(np.zeros((4, 1)), np.zeros(4, dtype=np.int64),
                           np.array(starts), np.array(sizes), num_classes=1)


# ----------------------------------------------------------------------
# StackPool
# ----------------------------------------------------------------------
def test_stack_pool_recycles_buffers():
    pool = StackPool()
    a = pool.acquire(5, 3)
    assert a.shape == (5, 3)
    assert len(pool._lent) == 1
    assert pool.release(a)
    assert len(pool._lent) == 0
    assert len(pool._free) == 1
    b = pool.acquire(4, 3)  # best-fit reuse of the freed 5x3 base
    assert b.shape == (4, 3)
    assert len(pool._free) == 0
    assert pool.release(b)


def test_stack_pool_release_is_noop_for_foreign_arrays():
    pool = StackPool()
    foreign = np.zeros((2, 2))
    assert pool.release(foreign) is False
    assert pool.release(None) is False
    assert len(pool._lent) == 0


def test_stack_pool_refuses_a_view_past_the_first_row():
    """Cohorts' stacks are row views of one slab: releasing a later one
    would free the rows of every cohort before it still in flight."""
    pool = StackPool()
    slab = pool.acquire(6, 3)
    with pytest.raises(ValueError, match="view"):
        pool.release(slab[2:4])
    assert len(pool._lent) == 1
    assert pool.release(slab)
    assert pool.release(slab) is False
    assert len(pool._lent) == 0


# ----------------------------------------------------------------------
# Population facade
# ----------------------------------------------------------------------
def test_population_shards_equal_legacy_copies_and_share_the_store():
    dataset = _dataset()
    partition = partition_label_skew(
        dataset, num_workers=10, labels_per_worker=2, seed=0
    )
    population = Population.from_dataset(dataset, partition)
    for w in range(10):
        x_legacy, y_legacy = legacy_subset(dataset, partition.worker_indices(w))
        x, y = population.shard(w)
        np.testing.assert_array_equal(x, x_legacy)
        np.testing.assert_array_equal(y, y_legacy)
        assert np.shares_memory(x, population.store.x)
    sequence = population.worker_data_sequence()
    assert not isinstance(sequence, list)
    assert np.shares_memory(sequence[3].x, population.store.x)
    np.testing.assert_array_equal(
        partition.class_counts(), ClassCountView(population.store)
    )


def test_population_store_is_lazy_until_first_shard():
    dataset = _dataset()
    partition = partition_iid(dataset, num_workers=4, seed=0)
    population = Population.from_dataset(dataset, partition)
    assert not population.store_built
    population.shard(0)
    assert population.store_built


def test_population_requires_store_or_dataset():
    table = WorkerStateTable(np.full(3, 2))
    with pytest.raises(ValueError, match="prebuilt store"):
        Population(table)


def test_population_replicated_xl_construction_is_compact():
    """100k-worker construction smoke: O(N) scalars, O(1) sample storage."""
    dataset = _dataset(num_train=256)
    num_workers = 100_000
    population = Population.replicated(
        dataset, num_workers=num_workers, shard_size=32
    )
    assert population.num_workers == num_workers
    # No sample copies at all; the resident footprint is the per-worker
    # scalar fields (~9 int64/float64 arrays) — well under 100 MB.
    assert population.store.x is dataset.x_train
    assert population.state.nbytes < 100 * 1024 * 1024
    shard = population.shard(num_workers - 1)
    assert len(shard.x) == 32
    assert np.shares_memory(shard.x, dataset.x_train)


def test_replicated_state_keeps_one_size_array():
    population = Population.replicated(_dataset(num_train=256), num_workers=50, shard_size=32)
    np.testing.assert_array_equal(population.state.sizes, population.store.sizes)
    # Resident bytes: one float64 size (a zero-stride view), float64
    # latencies, four int32 counters.
    assert population.state.sizes.strides == (0,)
    assert population.state.nbytes == 8 + 50 * (8 + 4 * 4)


def test_replicated_sizes_refuse_an_in_place_write():
    sizes = Population.replicated(_dataset(num_train=256), num_workers=50, shard_size=32).state.sizes
    with pytest.raises(ValueError, match="read-only"):
        sizes[3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sizes *= 2.0
    assert sizes.tolist() == [32.0] * 50


# ----------------------------------------------------------------------
# contiguous grouping + group-level READY (the XL event-loop path)
# ----------------------------------------------------------------------
def _problem(num_workers):
    rng = np.random.default_rng(0)
    return GroupingProblem(
        data_sizes=np.full(num_workers, 8.0),
        class_counts=rng.integers(0, 5, size=(num_workers, 4)).astype(float),
        local_times=np.linspace(1.0, 2.0, num_workers),
        model_dimension=100,
        config=AirFedGAConfig(),
    )


def test_contiguous_grouping_covers_all_workers_with_arrays():
    result = contiguous_grouping(_problem(103), num_groups=10)
    assert result.strategy == "contiguous"
    assert len(result.groups) == 10
    assert all(isinstance(g, np.ndarray) for g in result.groups)
    flat = np.concatenate(result.groups)
    np.testing.assert_array_equal(np.sort(flat), np.arange(103))


def test_receive_group_ready_equivalent_to_per_member_loop():
    groups = [np.array([0, 1, 2]), np.array([3, 4])]
    a = GroupAsyncScheduler(groups)
    b = GroupAsyncScheduler(groups)
    for w in (0, 1, 2):
        completed = a.receive_ready(w)
    assert completed == 0
    assert b.receive_group_ready(0) == 0
    ev_a = a.complete_aggregation(0)
    ev_b = b.complete_aggregation(0)
    assert ev_a.round_index == ev_b.round_index == 1
    assert ev_a.staleness == ev_b.staleness
    assert ev_a.base_version == ev_b.base_version == 0


def test_receive_group_ready_rejects_partial_state():
    scheduler = GroupAsyncScheduler([np.array([0, 1, 2])])
    scheduler.receive_ready(0)
    with pytest.raises(RuntimeError, match="partial"):
        scheduler.receive_group_ready(0)


def test_scheduler_array_groups_worker_map():
    scheduler = GroupAsyncScheduler([np.array([5, 2]), np.array([0, 7])])
    assert scheduler.group_of(5) == 0
    assert scheduler.group_of(7) == 1
    with pytest.raises(KeyError):
        scheduler.group_of(3)
    with pytest.raises(ValueError, match="multiple groups"):
        GroupAsyncScheduler([np.array([0, 1]), np.array([1, 2])])


# ----------------------------------------------------------------------
# registered per-worker state fields (persistent mechanism state)
# ----------------------------------------------------------------------
def test_register_field_shapes_fill_and_idempotency():
    table = WorkerStateTable(np.full(6, 4))
    scalar = table.register_field("counter", dtype=np.int64, fill=0)
    vector = table.register_field("drift", width=5, fill=0.5)
    assert scalar.shape == (6,) and scalar.dtype == np.int64
    assert vector.shape == (6, 5) and vector.dtype == np.float64
    assert np.all(vector == 0.5)
    # Idempotent re-registration returns the same array, values preserved.
    vector[2] = 7.0
    again = table.register_field("drift", width=5)
    assert again is vector
    assert np.all(again[2] == 7.0)


def test_register_field_rejects_mismatched_respec():
    table = WorkerStateTable(np.full(4, 4))
    table.register_field("drift", width=3)
    with pytest.raises(ValueError, match="already registered"):
        table.register_field("drift", width=4)
    with pytest.raises(ValueError, match="already registered"):
        table.register_field("drift", width=3, dtype=np.float32)
    with pytest.raises(ValueError, match="width"):
        table.register_field("bad", width=0)


def test_registered_fields_count_toward_nbytes():
    table = WorkerStateTable(np.full(8, 4))
    before = table.nbytes
    table.register_field("drift", width=100)
    assert table.nbytes == before + 8 * 100 * 8
