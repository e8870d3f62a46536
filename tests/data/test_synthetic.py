"""Unit tests for synthetic dataset generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.data import (
    Dataset,
    SyntheticImageConfig,
    make_cifar10_like,
    make_imagenet100_like,
    make_mnist_like,
    make_synthetic_images,
)

from oracle.data import legacy_subset


class TestDatasetContainer:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                name="x",
                x_train=np.zeros((3, 4)),
                y_train=np.zeros(2, dtype=int),
                x_test=np.zeros((1, 4)),
                y_test=np.zeros(1, dtype=int),
                num_classes=2,
            )

    def test_counts_and_shape(self):
        ds = make_mnist_like(num_train=50, num_test=10, image_size=8, seed=0)
        assert ds.num_train == 50
        assert ds.num_test == 10
        assert ds.x_train.shape[1:] == (1, 8, 8)

    def test_flattened(self):
        ds = make_mnist_like(num_train=20, num_test=5, image_size=8, seed=0)
        flat = ds.flattened()
        assert flat.x_train.shape == (20, 64)
        assert flat.num_classes == ds.num_classes
        np.testing.assert_array_equal(flat.y_train, ds.y_train)

    def test_subset(self):
        ds = make_mnist_like(num_train=20, num_test=5, image_size=8, seed=0)
        idx = np.array([3, 5, 7])
        x, y = legacy_subset(ds, idx)
        assert x.shape[0] == 3
        np.testing.assert_array_equal(y, ds.y_train[idx])


class TestSyntheticGeneration:
    def test_deterministic_given_seed(self):
        a = make_mnist_like(num_train=30, num_test=10, image_size=8, seed=5)
        b = make_mnist_like(num_train=30, num_test=10, image_size=8, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_different_seed_changes_data(self):
        a = make_mnist_like(num_train=30, num_test=10, image_size=8, seed=5)
        b = make_mnist_like(num_train=30, num_test=10, image_size=8, seed=6)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_train_standardized(self):
        ds = make_mnist_like(num_train=500, num_test=50, image_size=8, seed=0)
        assert abs(ds.x_train.mean()) < 0.05
        assert abs(ds.x_train.std() - 1.0) < 0.05

    def test_all_classes_present(self):
        ds = make_mnist_like(num_train=500, num_test=100, image_size=8, seed=0)
        assert set(np.unique(ds.y_train)) == set(range(10))

    def test_labels_in_range(self):
        ds = make_imagenet100_like(num_train=300, num_test=50, image_size=8,
                                   num_classes=20, seed=0)
        assert ds.y_train.min() >= 0 and ds.y_train.max() < 20

    def test_classes_are_learnable(self):
        """A nearest-prototype classifier should beat chance comfortably."""
        ds = make_mnist_like(num_train=400, num_test=100, image_size=8, seed=0)
        x = ds.x_train.reshape(ds.num_train, -1)
        xt = ds.x_test.reshape(ds.num_test, -1)
        centroids = np.stack([x[ds.y_train == c].mean(axis=0) for c in range(10)])
        dists = ((xt[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == ds.y_test).mean()
        assert acc > 0.5  # chance level is 0.1

    def test_cifar_like_has_three_channels(self):
        ds = make_cifar10_like(num_train=20, num_test=5, image_size=8, seed=0)
        assert ds.x_train.shape[1:] == (3, 8, 8)

    def test_cifar_harder_than_mnist(self):
        """CIFAR-like uses more noise, so prototype classification is harder."""
        def prototype_acc(ds):
            x = ds.x_train.reshape(ds.num_train, -1)
            xt = ds.x_test.reshape(ds.num_test, -1)
            cent = np.stack([x[ds.y_train == c].mean(axis=0) for c in range(10)])
            d = ((xt[:, None, :] - cent[None]) ** 2).sum(axis=2)
            return (d.argmin(axis=1) == ds.y_test).mean()

        mnist = make_mnist_like(num_train=500, num_test=200, image_size=8, seed=1)
        cifar = make_cifar10_like(num_train=500, num_test=200, image_size=8, seed=1)
        assert prototype_acc(cifar) < prototype_acc(mnist)

    def test_imagenet_like_class_count(self):
        ds = make_imagenet100_like(num_train=500, num_test=50, image_size=8, seed=0)
        assert ds.num_classes == 100


class TestValidationAndRegistry:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            make_synthetic_images(SyntheticImageConfig(num_classes=1), "x")

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            make_synthetic_images(
                SyntheticImageConfig(num_classes=10, num_train=5), "x"
            )

    def test_registry_contains_three_datasets(self):
        assert set(registry.names("dataset")) == {
            "synthetic-mnist",
            "synthetic-cifar10",
            "synthetic-imagenet100",
        }

    def test_load_dataset(self):
        ds = registry.create(
            "dataset", "synthetic-mnist", num_train=30, num_test=10, image_size=8
        )
        assert ds.name == "synthetic-mnist"

    def test_load_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            registry.create("dataset", "mnist-real")
