"""Every component family shares UnknownComponentError + kwargs checks."""

import pytest

from repro import registry
from repro.experiments.configs import lr_mnist_config
from repro.fl.registry import build_trainer
from repro.registry import UnknownComponentError


class TestBuildTrainerErrors:
    def test_unknown_mechanism_suggests_close_match(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            build_trainer("air_fedag", None)
        message = str(excinfo.value)
        assert "unknown mechanism 'air_fedag'" in message
        assert "did you mean" in message
        assert "air_fedga" in excinfo.value.suggestions

    def test_unknown_mechanism_is_still_a_keyerror(self):
        with pytest.raises(KeyError, match="unknown mechanism"):
            build_trainer("fedsgd", None)

    def test_unknown_kwarg_raises_typeerror_with_accepted_params(self):
        with pytest.raises(TypeError) as excinfo:
            build_trainer("air_fedga", None, grouping="greedy")
        message = str(excinfo.value)
        assert "mechanism 'air_fedga'" in message
        assert "'grouping'" in message
        # The full accepted parameter list is spelled out.
        assert "grouping_strategy" in message
        assert "num_groups" in message
        assert "'staleness'" in message
        assert "staleness_exponent" not in message

    def test_unknown_kwarg_never_reaches_the_trainer(self):
        # TiFL's num_tiers is not an Air-FedGA parameter.
        with pytest.raises(TypeError, match="accepted parameters"):
            build_trainer("air_fedga", None, num_tiers=3)

    def test_valid_kwargs_still_forwarded(self, small_experiment):
        trainer = build_trainer("tifl", small_experiment, num_tiers=2)
        assert trainer.num_tiers == 2


class TestPartitionErrors:
    def test_scenario_partition_suggests_close_match(self):
        scenario = lr_mnist_config(num_workers=4, num_train=60, image_size=8)
        with pytest.raises(UnknownComponentError) as excinfo:
            scenario.with_(partition="dirichlet ")
        message = str(excinfo.value)
        assert "unknown partition strategy" in message
        assert "did you mean 'dirichlet'" in message

    def test_make_partition_unknown_strategy(self):
        with pytest.raises(KeyError, match="unknown partition strategy"):
            registry.get("partitioner", "sorted")


class TestOtherFamilies:
    def test_build_channel_unknown_kind(self):
        with pytest.raises(UnknownComponentError, match="unknown channel kind"):
            registry.create("channel", "mmwave", num_workers=4)

    def test_load_dataset_unknown_name(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.create("dataset", "synthetic-mnst")
        assert "did you mean 'synthetic-mnist'" in str(excinfo.value)

    def test_build_model_unknown_name(self):
        with pytest.raises(UnknownComponentError, match="unknown model"):
            registry.create("model", "vgg16")
