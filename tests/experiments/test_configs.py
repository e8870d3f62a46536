"""Unit tests for the experiment configurations."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENT_CONFIGS,
    Scenario,
    cnn_cifar10_config,
    cnn_mnist_config,
    lr_mnist_config,
    vgg_imagenet100_config,
)
from repro.experiments.configs import PAPER_DIMENSIONS
from repro.nn import BatchedWorkerEngine


def _classes_after_a_pass(exp, rows):
    """Output classes of the catalogue's model once the engine's forward pass
    has run it on ``rows`` dataset samples with their labels."""
    model = exp.model_factory()
    x, y = exp.dataset.x_train[:rows], exp.dataset.y_train[:rows]
    losses, _ = BatchedWorkerEngine(model).evaluate(model.get_vector()[None], x, y)
    assert np.isfinite(losses[0])
    return model.layers[-1].out_features


class TestRegistry:
    def test_all_four_workloads_present(self):
        assert set(EXPERIMENT_CONFIGS) == {
            "lr_mnist",
            "cnn_mnist",
            "cnn_cifar10",
            "vgg_imagenet100",
        }

    def test_paper_dimensions_are_large(self):
        """The latency model should describe paper-scale models, not the scaled ones."""
        assert PAPER_DIMENSIONS["lr"] > 500_000
        assert PAPER_DIMENSIONS["mini_vgg"] > 1_000_000


class TestConfigConstruction:
    def test_lr_mnist_builds_flat_model(self):
        scenario = lr_mnist_config(num_workers=5, num_train=100, image_size=8)
        assert scenario.data.flatten is True
        exp = scenario.build_experiment()
        assert exp.model_factory().dimension > 0
        assert exp.dataset.num_classes == 10

    def test_cnn_mnist_model_consumes_dataset_shape(self):
        exp = cnn_mnist_config(num_workers=5, num_train=60, image_size=8).build_experiment()
        assert _classes_after_a_pass(exp, 2) == 10

    def test_cnn_cifar10_uses_three_channels(self):
        exp = cnn_cifar10_config(num_workers=5, num_train=60, image_size=8).build_experiment()
        assert exp.dataset.sample_shape[0] == 3

    def test_vgg_config_class_count(self):
        exp = vgg_imagenet100_config(
            num_workers=5, num_train=200, image_size=8, num_classes=10
        ).build_experiment()
        assert exp.dataset.num_classes == 10
        assert _classes_after_a_pass(exp, 1) == 10

    def test_with_overrides_fields(self):
        scenario = lr_mnist_config(num_workers=5)
        new = scenario.with_(num_workers=9, **{"training.learning_rate": 0.5})
        assert new.num_workers == 9
        assert new.training.learning_rate == 0.5
        # The original is unchanged.
        assert scenario.num_workers == 5

    def test_latency_dimension_set_from_paper_values(self):
        assert (
            lr_mnist_config().training.latency_model_dimension == PAPER_DIMENSIONS["lr"]
        )
        assert (
            cnn_mnist_config().training.latency_model_dimension
            == PAPER_DIMENSIONS["mnist_cnn"]
        )

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
    def test_catalogue_entries_are_json_documents(self, name):
        scenario = EXPERIMENT_CONFIGS[name]()
        assert scenario.name == name
        assert Scenario.from_dict(json.loads(scenario.to_json())) == scenario
