"""Unit tests for federated data partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.core.population import WorkerStateTable
from repro.data import (
    Partition,
    make_mnist_like,
    partition_dirichlet,
    partition_iid,
    partition_label_skew,
)

from oracle.data import validate_partition


@pytest.fixture(scope="module")
def dataset():
    return make_mnist_like(num_train=400, num_test=40, image_size=8, seed=2)


class TestPartitionContainer:
    def test_data_sizes_and_total(self, dataset):
        part = partition_iid(dataset, num_workers=8, seed=0)
        sizes = part.data_sizes()
        assert sizes.sum() == dataset.num_train
        assert part.total_size == dataset.num_train

    def test_proportions_sum_to_one(self, dataset):
        """α_i = d_i / D, from the worker-state table built from the partition."""
        part = partition_iid(dataset, num_workers=8, seed=0)
        table = WorkerStateTable.from_partition(part)
        alphas = table.sizes / table.total_size
        assert alphas.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(alphas, part.data_sizes() / part.total_size)

    def test_class_counts_shape_and_total(self, dataset):
        part = partition_iid(dataset, num_workers=8, seed=0)
        counts = part.class_counts()
        assert counts.shape == (8, 10)
        assert counts.sum() == dataset.num_train

    def test_global_distribution_matches_label_frequencies(self, dataset):
        part = partition_iid(dataset, num_workers=5, seed=0)
        expected = np.bincount(dataset.y_train, minlength=10) / dataset.num_train
        totals = part.class_counts().sum(axis=0)
        np.testing.assert_allclose(totals / totals.sum(), expected)

    def test_validate_detects_overlap(self, dataset):
        part = Partition(
            indices=[np.array([0, 1, 2]), np.array([2, 3])],
            num_classes=10,
            labels=dataset.y_train,
        )
        with pytest.raises(ValueError, match="shares samples"):
            validate_partition(part)

    def test_validate_detects_out_of_range(self, dataset):
        part = Partition(
            indices=[np.array([0, dataset.num_train + 5])],
            num_classes=10,
            labels=dataset.y_train,
        )
        with pytest.raises(ValueError, match="out-of-range"):
            validate_partition(part)

    def test_validate_passes_for_good_partition(self, dataset):
        validate_partition(partition_iid(dataset, num_workers=4, seed=0))


class TestIIDPartition:
    def test_covers_all_samples_without_overlap(self, dataset):
        part = partition_iid(dataset, num_workers=7, seed=1)
        all_idx = np.concatenate(part.indices)
        assert len(all_idx) == dataset.num_train
        assert len(np.unique(all_idx)) == dataset.num_train

    def test_sizes_balanced(self, dataset):
        part = partition_iid(dataset, num_workers=7, seed=1)
        sizes = part.data_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_label_distributions_close_to_global(self, dataset):
        part = partition_iid(dataset, num_workers=4, seed=1)
        totals = part.class_counts().sum(axis=0)
        global_dist = totals / totals.sum()
        for row in part.class_counts() / part.data_sizes()[:, None]:
            assert np.abs(row - global_dist).sum() < 0.4

    def test_rejects_zero_workers(self, dataset):
        with pytest.raises(ValueError):
            partition_iid(dataset, num_workers=0)

    def test_deterministic(self, dataset):
        a = partition_iid(dataset, num_workers=5, seed=3)
        b = partition_iid(dataset, num_workers=5, seed=3)
        for ia, ib in zip(a.indices, b.indices):
            np.testing.assert_array_equal(ia, ib)


class TestLabelSkewPartition:
    def test_single_label_per_worker(self, dataset):
        part = partition_label_skew(dataset, num_workers=10, labels_per_worker=1, seed=0)
        counts = part.class_counts()
        # Every worker holds samples of exactly one class.
        assert np.all((counts > 0).sum(axis=1) == 1)

    def test_paper_block_structure(self, dataset):
        """With N = 10k workers, consecutive blocks share a class (v1-v10 hold '0')."""
        part = partition_label_skew(dataset, num_workers=20, labels_per_worker=1, seed=0)
        counts = part.class_counts()
        worker_class = counts.argmax(axis=1)
        # Workers 0 and 1 share a class, workers 2 and 3 the next, etc.
        assert worker_class[0] == worker_class[1]
        assert worker_class[0] != worker_class[2]

    def test_two_labels_per_worker(self, dataset):
        part = partition_label_skew(dataset, num_workers=10, labels_per_worker=2, seed=0)
        counts = part.class_counts()
        assert np.all((counts > 0).sum(axis=1) <= 2)
        assert np.all((counts > 0).sum(axis=1) >= 1)

    def test_covers_all_samples(self, dataset):
        part = partition_label_skew(dataset, num_workers=10, seed=0)
        all_idx = np.concatenate([ix for ix in part.indices if ix.size])
        assert len(np.unique(all_idx)) == len(all_idx)
        assert len(all_idx) == dataset.num_train

    def test_rejects_bad_arguments(self, dataset):
        with pytest.raises(ValueError):
            partition_label_skew(dataset, num_workers=0)
        with pytest.raises(ValueError):
            partition_label_skew(dataset, num_workers=5, labels_per_worker=0)

    def test_more_workers_than_samples_of_a_class(self, dataset):
        # 80 workers over ~40 samples per class still yields a valid partition.
        part = partition_label_skew(dataset, num_workers=80, seed=0)
        validate_partition(part)
        assert part.num_workers == 80


class TestDirichletPartition:
    def test_covers_all_samples(self, dataset):
        part = partition_dirichlet(dataset, num_workers=8, alpha=0.5, seed=0)
        all_idx = np.concatenate(part.indices)
        assert len(np.unique(all_idx)) == len(all_idx)

    def test_minimum_samples_respected(self, dataset):
        part = partition_dirichlet(dataset, num_workers=8, alpha=0.5, seed=0,
                                   min_samples=3)
        assert part.data_sizes().min() >= 3

    def test_small_alpha_more_skewed_than_large(self, dataset):
        skewed = partition_dirichlet(dataset, num_workers=6, alpha=0.1, seed=1)
        uniform = partition_dirichlet(dataset, num_workers=6, alpha=100.0, seed=1)
        totals = skewed.class_counts().sum(axis=0)
        global_dist = totals / totals.sum()

        def avg_emd(part):
            dist = part.class_counts() / part.data_sizes()[:, None]
            return np.abs(dist - global_dist).sum(axis=1).mean()

        assert avg_emd(skewed) > avg_emd(uniform)

    def test_rejects_bad_alpha(self, dataset):
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, num_workers=4, alpha=0.0)

    def test_rejects_impossible_min_samples(self, dataset):
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, num_workers=400, alpha=1.0, min_samples=10)


class TestPartitionRegistry:
    def test_registry_names(self):
        assert set(registry.names("partitioner")) == {"iid", "label-skew", "dirichlet"}

    def test_make_partition_dispatch(self, dataset):
        part = registry.create("partitioner", "iid", dataset, num_workers=4, seed=0)
        assert part.num_workers == 4

    def test_make_partition_unknown(self, dataset):
        with pytest.raises(KeyError, match="unknown partition strategy"):
            registry.create("partitioner", "pathological", dataset, num_workers=4)
