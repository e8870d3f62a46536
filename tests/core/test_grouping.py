"""Unit tests for the worker-grouping strategies (Algorithm 3 + baselines)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel.aircomp import aircomp_latency
from repro.core import (
    AirFedGAConfig,
    GroupingConfig,
    GroupingProblem,
    greedy_grouping,
    random_grouping,
    singleton_grouping,
    tier_grouping,
)
from repro.core.convergence import grouping_objective
from repro.core.grouping import GROUPING_STRATEGIES, _evaluate_grouping, contiguous_grouping
from repro.core.timing import (
    average_round_time,
    estimated_max_staleness,
    participation_frequencies,
)
from repro.data import make_mnist_like, partition_label_skew
from repro.sim import HeterogeneityModel, LatencyTable


def make_problem(num_workers=20, xi=0.3, seed=0, c_max=0.0):
    dataset = make_mnist_like(num_train=400, num_test=40, image_size=8, seed=seed)
    partition = partition_label_skew(dataset, num_workers=num_workers, seed=seed)
    latency = LatencyTable(
        num_workers=num_workers,
        base_time=2.0,
        heterogeneity=HeterogeneityModel(num_workers=num_workers, seed=seed + 1),
    )
    config = AirFedGAConfig(grouping=GroupingConfig(xi=xi))
    problem = GroupingProblem(
        data_sizes=partition.data_sizes(),
        class_counts=partition.class_counts(),
        local_times=latency.nominal,
        model_dimension=100_000,
        config=config,
        c_max=c_max,
    )
    return problem, partition, latency


RESULT_ARRAYS = ("group_times", "frequencies", "betas", "lambdas")


def assigned(result):
    """Every member of ``result``'s groups, sorted: ``range(N)`` for a partition."""
    return sorted(w for g in result.groups for w in g)


@pytest.mark.parametrize("strategy", sorted(GROUPING_STRATEGIES))
@pytest.mark.parametrize("num_workers", [12, 23])
def test_integer_and_float_histograms_group_identically(strategy, num_workers):
    """The histogram is kept in the dtype given; counts are exact in both."""
    problem, partition, _ = make_problem(num_workers=num_workers, c_max=0.01)
    counts = partition.class_counts()
    assert counts.dtype == np.int64 and problem.class_counts is counts
    as_float = dataclasses.replace(problem, class_counts=counts.astype(np.float64))
    assert as_float.class_counts.dtype == np.float64
    a = GROUPING_STRATEGIES[strategy](problem, 5, 3)
    b = GROUPING_STRATEGIES[strategy](as_float, 5, 3)
    assert [list(g) for g in a.groups] == [list(g) for g in b.groups]
    assert a.objective == b.objective
    assert a.tau_max_estimate == b.tau_max_estimate
    assert a.upload_latency == b.upload_latency
    for name in RESULT_ARRAYS:
        assert getattr(a, name).dtype == np.float64
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(problem.global_distribution(), as_float.global_distribution())


@pytest.mark.parametrize("narrow", [np.uint8, np.int16, np.int32])
@pytest.mark.parametrize("strategy", ["contiguous", "random"])
def test_narrow_integer_histograms_widen_before_they_are_summed(narrow, strategy):
    """Group sums that do not fit the given integer dtype must not wrap."""
    rng = np.random.default_rng(3)
    counts = rng.integers(100, 200, size=(40, 4))  # a group of 20 sums past 255
    problem = GroupingProblem(
        data_sizes=counts.sum(axis=1),
        class_counts=counts.astype(np.float64),  # the reference: float64 sums
        local_times=rng.uniform(1.0, 2.0, 40),
        model_dimension=1000,
    )
    if narrow is not np.uint8:
        scale = np.iinfo(narrow).max // 200  # every entry fits, no pair of them does
        problem = dataclasses.replace(problem, class_counts=problem.class_counts * scale)
    narrowed = dataclasses.replace(problem, class_counts=problem.class_counts.astype(narrow))
    assert problem.class_counts.dtype == np.float64
    assert narrowed.class_counts.dtype == narrow  # kept as given, no copy
    assert narrowed.class_totals.dtype == np.int64
    assert np.array_equal(narrowed.class_counts, problem.class_counts)
    assert np.array_equal(narrowed.class_totals, problem.class_totals)
    assert np.array_equal(narrowed.global_distribution(), problem.global_distribution())
    a = GROUPING_STRATEGIES[strategy](problem, 2, 3)
    b = GROUPING_STRATEGIES[strategy](narrowed, 2, 3)
    assert a.objective == b.objective
    assert np.array_equal(a.lambdas, b.lambdas)


def test_contiguous_blocks_are_array_split_blocks():
    for num_workers, num_groups in [(10, 3), (64, 8), (7, 7), (5, 9), (23, 1)]:
        problem, _, _ = make_problem(num_workers=num_workers)
        result = contiguous_grouping(problem, num_groups)
        expected = np.array_split(np.arange(num_workers), min(num_groups, num_workers))
        assert len(result.groups) == len(expected)
        for got, want in zip(result.groups, expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)


def test_negative_counts_rejected_in_either_dtype():
    for dtype in (np.int64, np.float64):
        with pytest.raises(ValueError, match="non-negative"):
            GroupingProblem(
                data_sizes=np.array([1.0, 2.0]),
                class_counts=np.array([[1, 0], [0, -1]], dtype=dtype),
                local_times=np.array([1.0, 1.0]),
                model_dimension=10,
            )


class TestGroupingProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupingProblem(
                data_sizes=np.array([1.0]),
                class_counts=np.ones((2, 3)),
                local_times=np.array([1.0]),
                model_dimension=10,
            )
        with pytest.raises(ValueError):
            GroupingProblem(
                data_sizes=np.array([1.0]),
                class_counts=np.ones((1, 3)),
                local_times=np.array([0.0]),
                model_dimension=10,
            )
        with pytest.raises(ValueError):
            GroupingProblem(
                data_sizes=np.array([1.0]),
                class_counts=np.ones((1, 3)),
                local_times=np.array([1.0]),
                model_dimension=0,
            )

    def test_global_distribution_sums_to_one(self):
        problem, _, _ = make_problem()
        assert problem.global_distribution().sum() == pytest.approx(1.0)

    def test_time_spread(self):
        problem, _, latency = make_problem()
        times = latency.nominal
        assert problem.time_spread() == pytest.approx(times.max() - times.min())


class TestGreedyGrouping:
    def test_covers_every_worker_exactly_once(self):
        problem, _, _ = make_problem()
        result = greedy_grouping(problem)
        assert assigned(result) == list(range(problem.num_workers))

    def test_respects_time_similarity_constraint(self):
        """Every member's straggler wait stays within xi * delta_l (Eq. 36d)."""
        problem, _, _ = make_problem(xi=0.3)
        result = greedy_grouping(problem)
        slack = 0.3 * problem.time_spread()
        for members, group_time in zip(result.groups, result.group_times):
            for w in members:
                wait = group_time - result.upload_latency - problem.local_times[w]
                assert wait <= slack + 1e-9

    def test_zero_xi_gives_singleton_groups(self):
        """xi -> 0 degenerates into fully asynchronous per-worker updates."""
        problem, _, _ = make_problem(xi=0.0)
        result = greedy_grouping(problem)
        # Workers with distinct training times cannot share a group.
        assert result.num_groups == problem.num_workers

    def test_large_xi_allows_few_groups(self):
        problem_small, _, _ = make_problem(xi=0.1, seed=3)
        problem_large, _, _ = make_problem(xi=1.0, seed=3)
        few = greedy_grouping(problem_large).num_groups
        many = greedy_grouping(problem_small).num_groups
        assert few <= many

    def test_reduces_emd_relative_to_singletons(self):
        problem, _, _ = make_problem(num_workers=30)
        greedy = greedy_grouping(problem)
        single = singleton_grouping(problem)
        assert greedy.lambdas.mean() < single.lambdas.mean()

    def test_emd_not_worse_than_time_only_tiers(self):
        """The data-aware grouping should beat (or match) TiFL tiers (Table III)."""
        problem, _, _ = make_problem(num_workers=40, seed=5)
        greedy = greedy_grouping(problem)
        tiers = tier_grouping(problem, num_groups=greedy.num_groups)
        assert greedy.lambdas.mean() <= tiers.lambdas.mean() + 1e-9

    def test_objective_is_finite(self):
        problem, _, _ = make_problem()
        assert np.isfinite(greedy_grouping(problem).objective)

    def test_deterministic(self):
        problem, _, _ = make_problem(seed=2)
        a = greedy_grouping(problem)
        b = greedy_grouping(problem)
        assert [sorted(g) for g in a.groups] == [sorted(g) for g in b.groups]

    def test_betas_sum_to_one(self):
        problem, _, _ = make_problem()
        result = greedy_grouping(problem)
        assert result.betas.sum() == pytest.approx(1.0)

    def test_frequencies_sum_to_one(self):
        problem, _, _ = make_problem()
        result = greedy_grouping(problem)
        assert result.frequencies.sum() == pytest.approx(1.0)


class TestBaselineGroupings:
    def test_tier_grouping_sorted_by_time(self):
        problem, _, _ = make_problem(num_workers=24)
        result = tier_grouping(problem, num_groups=4)
        # Tiers are contiguous in sorted time order: the slowest member of
        # tier k is not slower than the fastest member of tier k+1.
        maxima = [problem.local_times[list(g)].max() for g in result.groups]
        minima = [problem.local_times[list(g)].min() for g in result.groups]
        for k in range(len(result.groups) - 1):
            assert maxima[k] <= minima[k + 1] + 1e-12

    def test_tier_grouping_group_count(self):
        problem, _, _ = make_problem(num_workers=24)
        assert tier_grouping(problem, num_groups=6).num_groups == 6

    def test_tier_grouping_caps_at_worker_count(self):
        problem, _, _ = make_problem(num_workers=5)
        assert tier_grouping(problem, num_groups=50).num_groups == 5

    def test_random_grouping_covers_all_workers(self):
        problem, _, _ = make_problem(num_workers=17)
        result = random_grouping(problem, num_groups=4, seed=3)
        assert assigned(result) == list(range(17))

    def test_random_grouping_seed_reproducible(self):
        problem, _, _ = make_problem(num_workers=17)
        a = random_grouping(problem, num_groups=4, seed=3)
        b = random_grouping(problem, num_groups=4, seed=3)
        assert [sorted(g) for g in a.groups] == [sorted(g) for g in b.groups]

    def test_singleton_grouping(self):
        problem, _, _ = make_problem(num_workers=9)
        result = singleton_grouping(problem)
        assert result.num_groups == 9
        assert all(len(g) == 1 for g in result.groups)

    def test_invalid_group_counts(self):
        problem, _, _ = make_problem(num_workers=5)
        with pytest.raises(ValueError):
            tier_grouping(problem, num_groups=0)
        with pytest.raises(ValueError):
            random_grouping(problem, num_groups=0)


class TestGroupingResult:
    def test_every_strategy_partitions_the_workers(self):
        problem, _, _ = make_problem(num_workers=23)
        for name, strategy in GROUPING_STRATEGIES.items():
            assert assigned(strategy(problem, 4, 1)) == list(range(23)), name

    def test_lambdas_within_emd_bounds(self):
        problem, _, _ = make_problem(num_workers=20)
        for name, strategy in GROUPING_STRATEGIES.items():
            result = strategy(problem, 4, 1)
            assert np.all(result.lambdas >= 0.0), name
            assert np.all(result.lambdas <= 2.0 + 1e-12), name

    def test_lambda_of_one_group_is_zero(self):
        """One group holds the global distribution: Λ = 0 (Eq. 11)."""
        problem, _, _ = make_problem(num_workers=20)
        assert contiguous_grouping(problem, 1).lambdas == pytest.approx([0.0])

    def test_singleton_lambdas_of_one_label_workers(self):
        """A worker holding class k alone has Λ = 2(1 − λ_k): 1.8 at K = 10 balanced."""
        problem, _, _ = make_problem(num_workers=20)
        lambdas = singleton_grouping(problem).lambdas
        labels = problem.class_counts.argmax(axis=1)
        np.testing.assert_allclose(lambdas, 2.0 * (1.0 - problem.global_distribution()[labels]))
        assert lambdas.mean() == pytest.approx(1.8, abs=0.05)


# ----------------------------------------------------------------------
# Λ_j, the group-vs-global label EMD (Eq. 11)
# ----------------------------------------------------------------------
def counts_problem(counts, local_times=None):
    counts = np.asarray(counts, dtype=np.int64)
    if local_times is None:
        local_times = np.ones(counts.shape[0])
    return GroupingProblem(
        data_sizes=counts.sum(axis=1),
        class_counts=counts,
        local_times=local_times,
        model_dimension=1000,
    )


def lambdas_of(problem, groups):
    return _evaluate_grouping(problem, groups, "probe").lambdas


class TestGroupLambdas:
    def test_hand_computed_example(self):
        # λ = (3, 1, 2) / 6; group {0, 2} holds (3, 0, 1) / 4, group {1} (0, 1, 1) / 2.
        problem = counts_problem([[2, 0, 0], [0, 1, 1], [1, 0, 1]])
        np.testing.assert_allclose(lambdas_of(problem, [[0, 2], [1]]), [0.5, 1.0])

    def test_worker_matching_the_global_distribution_has_zero_lambda(self):
        problem = counts_problem([[1, 1], [2, 2], [5, 5]])
        assert np.array_equal(singleton_grouping(problem).lambdas, np.zeros(3))

    def test_one_label_group_of_a_rare_class_approaches_two(self):
        """Λ = 2(1 − λ_k) for a group holding only class k."""
        problem = counts_problem([[1, 0], [0, 999]])
        np.testing.assert_allclose(singleton_grouping(problem).lambdas, [1.998, 0.002])

    def test_paper_example_value(self):
        """Single-class workers over 10 balanced classes: Λ = 1.8 (Sec. VI-B3)."""
        problem = counts_problem(5 * np.eye(10, dtype=np.int64))
        np.testing.assert_allclose(singleton_grouping(problem).lambdas, 1.8)

    def test_worker_lambdas_close_to_paper_value(self):
        """Label-skew workers against a near-uniform global distribution."""
        problem, _, _ = make_problem(num_workers=20, seed=3)
        lambdas = singleton_grouping(problem).lambdas
        assert np.all(lambdas > 1.5)
        assert np.all(lambdas <= 2.0)

    def test_scaling_counts_leaves_lambdas_unchanged(self):
        counts = np.array([[3, 1, 0], [0, 2, 2], [1, 1, 4], [5, 0, 1]])
        groups = [[0, 3], [1], [2]]
        np.testing.assert_allclose(
            lambdas_of(counts_problem(7 * counts), groups),
            lambdas_of(counts_problem(counts), groups),
        )

    def test_permuting_classes_leaves_lambdas_unchanged(self):
        counts = np.array([[3, 1, 0], [0, 2, 2], [1, 1, 4], [5, 0, 1]])
        groups = [[0, 1], [2, 3]]
        np.testing.assert_allclose(
            lambdas_of(counts_problem(counts[:, [2, 0, 1]]), groups),
            lambdas_of(counts_problem(counts), groups),
        )

    def test_member_order_leaves_lambdas_unchanged(self):
        problem, _, _ = make_problem(num_workers=20)
        groups = [chunk.tolist() for chunk in ragged_split(20, seed=2)]
        reordered = [members[::-1] for members in reversed(groups)]
        assert np.array_equal(
            lambdas_of(problem, reordered), lambdas_of(problem, groups)[::-1]
        )

    def test_lambdas_do_not_depend_on_local_times(self):
        counts = np.array([[3, 1, 0], [0, 2, 2], [1, 1, 4], [5, 0, 1]])
        groups = [[0, 2], [1, 3]]
        slow = counts_problem(counts, local_times=np.array([9.0, 1.0, 4.0, 2.5]))
        assert np.array_equal(lambdas_of(slow, groups), lambdas_of(counts_problem(counts), groups))

    def test_mixing_classes_lowers_the_average_lambda(self):
        """Pairing workers of different classes lowers the average Λ."""
        problem, _, _ = make_problem(num_workers=20, seed=3)
        labels = problem.class_counts.argmax(axis=1)
        order = np.argsort(labels, kind="stable")
        same_class = [[int(order[2 * i]), int(order[2 * i + 1])] for i in range(10)]
        cross_class = [[int(order[i]), int(order[10 + i])] for i in range(10)]
        assert all(labels[a] == labels[b] for a, b in same_class)
        assert all(labels[a] != labels[b] for a, b in cross_class)
        assert lambdas_of(problem, cross_class).mean() < lambdas_of(problem, same_class).mean()

    def test_betas_are_group_data_shares(self):
        problem, partition, _ = make_problem(num_workers=20)
        result = random_grouping(problem, num_groups=4, seed=2)
        sizes = partition.data_sizes()
        expected = [sizes[list(g)].sum() / sizes.sum() for g in result.groups]
        np.testing.assert_allclose(result.betas, expected)

    def test_empty_worker_gets_uniform_distribution(self):
        problem = counts_problem([[4, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]])
        uniform = np.full(4, 0.25)
        expected = np.abs(uniform - problem.global_distribution()).sum()
        assert singleton_grouping(problem).lambdas[1] == pytest.approx(expected)


# ----------------------------------------------------------------------
# Segment-reduced evaluation vs. the per-group loop it replaced
# ----------------------------------------------------------------------
def per_group_loop(problem, groups):
    """``group_times``, ``betas``, ``lambdas`` the way the per-group loop computed them."""
    upload = aircomp_latency(
        problem.model_dimension,
        problem.config.aircomp.num_subchannels,
        problem.config.aircomp.symbol_duration_s,
    )
    members = [np.asarray(g, dtype=np.int64) for g in groups if len(g) > 0]
    group_times = np.array(
        [float(problem.local_times[m].max() + upload) for m in members]
    )
    total_data = float(problem.data_sizes.sum())
    betas = np.array([problem.data_sizes[m].sum() / total_data for m in members])
    global_dist = problem.global_distribution()
    lambdas = np.empty(len(members))
    for g, m in enumerate(members):
        counts = problem.class_counts[m].sum(axis=0)
        size = counts.sum()
        dist = (
            counts / size
            if size > 0
            else np.full_like(global_dist, 1.0 / problem.num_classes)
        )
        lambdas[g] = np.abs(dist - global_dist).sum()
    return group_times, betas, lambdas


def synthetic_problem(num_workers, num_classes, seed, empty_workers=()):
    rng = np.random.default_rng(seed)
    class_counts = rng.integers(0, 30, size=(num_workers, num_classes))
    class_counts[list(empty_workers)] = 0
    # The population floors empty workers' sizes at 1e-9, so the sums are
    # not all-integer and their order shows in the last bit.
    sizes = np.maximum(class_counts.sum(axis=1).astype(np.float64), 1e-9)
    return GroupingProblem(
        data_sizes=sizes,
        class_counts=class_counts,
        local_times=rng.uniform(0.5, 3.0, size=num_workers),
        model_dimension=50_000,
        c_max=0.01,
    )


def ragged_split(num_workers, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_workers)
    cuts = np.sort(rng.choice(np.arange(1, num_workers), size=6, replace=False))
    return np.split(order, cuts)


class TestEvaluateGroupingMatchesPerGroupLoop:
    def check(self, problem, groups):
        result = _evaluate_grouping(problem, groups, "probe")
        group_times, betas, lambdas = per_group_loop(problem, groups)
        assert np.array_equal(result.group_times, group_times)
        assert np.array_equal(result.betas, betas)
        assert np.array_equal(result.lambdas, lambdas)
        objective = grouping_objective(
            problem.config.convergence,
            round_time=average_round_time(group_times),
            tau_max=max(0.0, estimated_max_staleness(group_times) - 1.0),
            psi=participation_frequencies(group_times),
            beta=betas,
            lambdas=lambdas,
            c_max=problem.c_max,
        )
        assert result.objective == float(objective)
        return result

    @pytest.mark.parametrize("num_classes", [2, 10, 100])
    def test_list_groups(self, num_classes):
        problem = synthetic_problem(60, num_classes, seed=num_classes, empty_workers=(3, 17))
        groups = [chunk.tolist() for chunk in ragged_split(60, seed=1)]
        result = self.check(problem, groups)
        assert all(isinstance(g, np.ndarray) and g.dtype == np.int64 for g in result.groups)
        assert [g.tolist() for g in result.groups] == [g for g in groups if g]

    def test_int64_array_groups_come_back_equal(self):
        problem = synthetic_problem(64, 10, seed=5, empty_workers=(0,))
        groups = np.array_split(np.arange(64, dtype=np.int64), 8)
        result = self.check(problem, groups)
        assert len(result.groups) == len(groups)
        for got, given in zip(result.groups, groups):
            assert got.dtype == np.int64 and np.array_equal(got, given)

    def test_ragged_mixed_groups_with_singletons_and_empties(self):
        problem = synthetic_problem(40, 10, seed=9, empty_workers=(5, 6, 7))
        groups = [[5], np.array([6, 7, 1], dtype=np.int64), [], list(range(8, 40)), (0, 2, 3, 4)]
        result = self.check(problem, groups)
        assert result.num_groups == 4

    def test_group_with_empty_label_histogram(self):
        problem = synthetic_problem(12, 10, seed=2, empty_workers=(4, 5))
        result = self.check(problem, [[0, 1, 2, 3], [4, 5], [6, 7, 8, 9, 10, 11]])
        uniform = np.full(10, 0.1)
        assert result.lambdas[1] == np.abs(uniform - problem.global_distribution()).sum()

    def test_fractional_sizes_keep_the_summation_order(self):
        problem = synthetic_problem(200, 10, seed=11)
        problem.data_sizes = np.random.default_rng(11).uniform(0.1, 50.0, size=200)
        self.check(problem, ragged_split(200, seed=3))

    def test_real_partition(self):
        problem, _, _ = make_problem(num_workers=20, c_max=0.02)
        self.check(problem, [chunk.tolist() for chunk in ragged_split(20, seed=4)])

    def test_no_non_empty_group(self):
        problem = synthetic_problem(4, 3, seed=0)
        with pytest.raises(ValueError, match="no non-empty groups"):
            _evaluate_grouping(problem, [[], []], "probe")


# ----------------------------------------------------------------------
# The per-class reduction vs. the whole-table one it replaced
# ----------------------------------------------------------------------
def whole_table_reduction(problem, groups):
    """``group_times``, ``betas``, ``lambdas`` and the objective as
    ``_evaluate_grouping`` computed them with a widened copy of the table,
    reduced whole (``reduceat(axis=0)``) when the members are in index order."""
    cfg = problem.config
    kept = [np.asarray(g, dtype=np.int64) for g in groups if len(g) > 0]
    lengths = np.array([g.size for g in kept])
    flat, starts = np.concatenate(kept), np.cumsum(lengths) - lengths
    upload = aircomp_latency(
        problem.model_dimension, cfg.aircomp.num_subchannels, cfg.aircomp.symbol_duration_s
    )
    group_times = np.maximum.reduceat(problem.local_times[flat], starts) + upload
    zero_slots = starts + np.arange(starts.size)
    is_member = np.ones(flat.size + starts.size, dtype=bool)
    is_member[zero_slots] = False
    sizes = np.zeros(is_member.size)
    sizes[is_member] = problem.data_sizes[flat]
    betas = np.add.reduceat(sizes, zero_slots) / float(problem.data_sizes.sum())
    raw = problem.class_counts
    table = raw.astype(np.int64 if raw.dtype.kind in "iu" else np.float64, copy=False)
    if flat.size == problem.num_workers and np.array_equal(flat, np.arange(flat.size)):
        counts = np.add.reduceat(table, starts, axis=0).astype(np.float64)
    else:
        counts = np.empty((len(kept), problem.num_classes))
        for k, column in enumerate(table.T):
            counts[:, k] = np.add.reduceat(column[flat], starts)
    totals = table.sum(axis=0)
    global_dist = totals / totals.sum()
    group_size = counts.sum(axis=1, keepdims=True)
    dists = np.divide(
        counts, group_size, out=np.full_like(counts, 1.0 / problem.num_classes),
        where=group_size > 0,
    )
    lambdas = np.abs(dists - global_dist).sum(axis=1)
    objective = grouping_objective(
        cfg.convergence,
        round_time=average_round_time(group_times),
        tau_max=max(0.0, estimated_max_staleness(group_times) - 1.0),
        psi=participation_frequencies(group_times),
        beta=betas,
        lambdas=lambdas,
        c_max=problem.c_max,
    )
    return group_times, betas, lambdas, float(objective)


TABLE_LAYOUTS = {
    "int32 class-major": lambda counts: np.ascontiguousarray(counts.T, dtype=np.int32).T,
    "uint8 class-major": lambda counts: np.ascontiguousarray(counts.T, dtype=np.uint8).T,
    "int64 C-order": lambda counts: np.ascontiguousarray(counts, dtype=np.int64),
    "float64": lambda counts: counts.astype(np.float64),
}


@pytest.mark.parametrize("layout", sorted(TABLE_LAYOUTS))
@pytest.mark.parametrize("strategy", sorted(GROUPING_STRATEGIES))
def test_per_class_reduction_equals_the_whole_table_one(strategy, layout):
    base, _, _ = make_problem(num_workers=23, c_max=0.01)
    counts = base.class_counts.copy()
    counts[[4, 11]] = 0  # workers with no labels at all
    problem = dataclasses.replace(base, class_counts=TABLE_LAYOUTS[layout](counts))
    result = GROUPING_STRATEGIES[strategy](problem, 5, 3)
    group_times, betas, lambdas, objective = whole_table_reduction(problem, result.groups)
    assert np.array_equal(result.group_times, group_times)
    assert np.array_equal(result.betas, betas)
    assert np.array_equal(result.lambdas, lambdas)
    assert result.objective == objective
