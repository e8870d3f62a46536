"""Property-based tests for dataset partitioning and the group EMD Λ_j."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroupingProblem, contiguous_grouping
from repro.core.grouping import _evaluate_grouping
from repro.data import (
    make_mnist_like,
    partition_dirichlet,
    partition_iid,
    partition_label_skew,
)

from oracle.data import validate_partition


# A single module-level dataset keeps the property tests fast.
DATASET = make_mnist_like(num_train=300, num_test=30, image_size=8, seed=99)


class TestPartitionProperties:
    @given(
        num_workers=st.integers(1, 40),
        strategy=st.sampled_from(["iid", "label-skew"]),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_dataset_exactly_once(self, num_workers, strategy, seed):
        if strategy == "iid":
            part = partition_iid(DATASET, num_workers, seed=seed)
        else:
            part = partition_label_skew(DATASET, num_workers, seed=seed)
        all_idx = np.concatenate([ix for ix in part.indices if ix.size]) if part.num_workers else np.array([])
        # No duplicates, no out-of-range indices, full coverage.
        assert len(np.unique(all_idx)) == len(all_idx)
        assert all_idx.min() >= 0 and all_idx.max() < DATASET.num_train
        assert len(all_idx) == DATASET.num_train
        validate_partition(part)

    @given(num_workers=st.integers(2, 20), alpha=st.floats(0.2, 10.0), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_dirichlet_partition_valid(self, num_workers, alpha, seed):
        part = partition_dirichlet(DATASET, num_workers, alpha=alpha, seed=seed)
        validate_partition(part)
        assert part.total_size == DATASET.num_train

    @given(num_workers=st.integers(1, 30), seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_proportions_and_distributions_normalized(self, num_workers, seed):
        part = partition_label_skew(DATASET, num_workers, seed=seed)
        assert np.array_equal(part.class_counts().sum(axis=1), part.data_sizes())
        assert grouping_problem(part).global_distribution().sum() == pytest.approx(1.0)


def grouping_problem(part):
    return GroupingProblem(
        data_sizes=part.data_sizes(),
        class_counts=part.class_counts(),
        local_times=np.ones(part.num_workers),
        model_dimension=1000,
    )


class TestEMDProperties:
    @given(num_workers=st.integers(2, 24), seed=st.integers(0, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_group_emds_within_bounds_for_random_groupings(
        self, num_workers, seed, data
    ):
        part = partition_label_skew(DATASET, num_workers, seed=seed)
        # Draw a random assignment of workers into up to 4 groups.
        num_groups = data.draw(st.integers(1, min(4, num_workers)))
        assignment = [
            data.draw(st.integers(0, num_groups - 1)) for _ in range(num_workers)
        ]
        groups = [
            [w for w, g in enumerate(assignment) if g == gid]
            for gid in range(num_groups)
        ]
        groups = [g for g in groups if g]
        values = _evaluate_grouping(grouping_problem(part), groups, "probe").lambdas
        assert np.all(values >= 0.0)
        assert np.all(values <= 2.0 + 1e-12)

    @given(num_workers=st.integers(2, 20), seed=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_single_group_has_zero_emd(self, num_workers, seed):
        """Grouping everyone together always matches the global distribution."""
        part = partition_label_skew(DATASET, num_workers, seed=seed)
        lambdas = contiguous_grouping(grouping_problem(part), 1).lambdas
        assert lambdas == pytest.approx([0.0])


def count_table(seed, num_workers, num_classes, low=0):
    return np.random.default_rng(seed).integers(low, 20, size=(num_workers, num_classes))


def counts_problem(counts):
    return GroupingProblem(
        data_sizes=counts.sum(axis=1),
        class_counts=counts,
        local_times=np.ones(counts.shape[0]),
        model_dimension=1000,
    )


count_tables = dict(
    seed=st.integers(0, 10_000), num_workers=st.integers(2, 12), num_classes=st.integers(2, 6)
)


class TestLambdaProperties:
    @given(**count_tables)
    @settings(max_examples=40, deadline=None)
    def test_lambdas_within_bounds_for_random_count_tables(self, seed, num_workers, num_classes):
        counts = count_table(seed, num_workers, num_classes)
        groups = np.array_split(np.arange(num_workers), 2)
        values = _evaluate_grouping(counts_problem(counts), groups, "probe").lambdas
        assert np.all(values >= 0.0)
        assert np.all(values <= 2.0 + 1e-12)

    @given(**count_tables)
    @settings(max_examples=40, deadline=None)
    def test_singleton_lambdas_match_the_l1_formula(self, seed, num_workers, num_classes):
        """Λ_i = Σ_k |d_i^k / d_i − λ_k|, with a uniform row for an empty worker."""
        counts = count_table(seed, num_workers, num_classes)
        problem = counts_problem(counts)
        sizes = counts.sum(axis=1, keepdims=True)
        dists = np.where(sizes > 0, counts / np.maximum(sizes, 1), 1.0 / num_classes)
        expected = np.abs(dists - problem.global_distribution()).sum(axis=1)
        groups = [[i] for i in range(num_workers)]
        np.testing.assert_allclose(_evaluate_grouping(problem, groups, "probe").lambdas, expected)

    @given(scale=st.integers(2, 50), **count_tables)
    @settings(max_examples=40, deadline=None)
    def test_lambdas_invariant_under_count_scaling(self, scale, seed, num_workers, num_classes):
        counts = count_table(seed, num_workers, num_classes, low=1)
        groups = np.array_split(np.arange(num_workers), 2)
        np.testing.assert_allclose(
            _evaluate_grouping(counts_problem(scale * counts), groups, "probe").lambdas,
            _evaluate_grouping(counts_problem(counts), groups, "probe").lambdas,
        )

    @given(**count_tables)
    @settings(max_examples=40, deadline=None)
    def test_merged_group_lambda_at_most_the_size_weighted_mean(
        self, seed, num_workers, num_classes
    ):
        """The union's distribution is a size-weighted mixture: Λ is convex in it."""
        counts = count_table(seed, num_workers, num_classes, low=1)
        problem = counts_problem(counts)
        split = np.array_split(np.arange(num_workers), 2)
        apart = _evaluate_grouping(problem, split, "probe")
        merged = _evaluate_grouping(problem, [np.arange(num_workers)[::-1].copy()], "probe")
        sizes = np.array([counts[g].sum() for g in split])
        weighted = float((sizes * apart.lambdas).sum() / sizes.sum())
        assert merged.lambdas[0] <= weighted + 1e-12

    @given(**count_tables)
    @settings(max_examples=40, deadline=None)
    def test_two_group_split_balances_beta_weighted_lambdas(self, seed, num_workers, num_classes):
        """β_A (p_A − λ) = −β_B (p_B − λ) when A and B cover everyone, so β_A Λ_A = β_B Λ_B."""
        counts = count_table(seed, num_workers, num_classes, low=1)
        result = _evaluate_grouping(
            counts_problem(counts), np.array_split(np.arange(num_workers), 2), "probe"
        )
        weighted = result.betas * result.lambdas
        assert weighted[0] == pytest.approx(weighted[1], abs=1e-12)
