"""Tests for the declarative Scenario spec (repro.experiments.scenario)."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from repro import registry
from repro.core import (
    AirCompConfig,
    AirFedGAConfig,
    ConvergenceConfig,
    GroupingConfig,
)
from repro.experiments import (
    ComponentSpec,
    DataSpec,
    Scenario,
    TimingSpec,
    TrainingSpec,
    lr_mnist_config,
)
from repro.fl import AirFedGATrainer, TiFLTrainer
from repro.registry import UnknownComponentError


def tiny_scenario(**overrides) -> Scenario:
    """A seconds-fast scenario used throughout this module."""
    scenario = Scenario(
        name="tiny",
        num_workers=6,
        seed=0,
        data=DataSpec(
            name="synthetic-mnist",
            params={"num_train": 120, "num_test": 60, "image_size": 8},
            flatten=True,
        ),
        model=ComponentSpec("lr", {"input_dim": 64, "hidden": 8, "num_classes": 10}),
        timing=TimingSpec(base_local_time=2.0),
        training=TrainingSpec(max_rounds=4, max_eval_samples=60),
    )
    return scenario.with_(**overrides) if overrides else scenario


class TestRoundTrip:
    def test_default_round_trips(self):
        s = Scenario.default()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trips(self, tmp_path):
        s = tiny_scenario()
        path = tmp_path / "scenario.json"
        s.to_json(path)
        with path.open() as handle:
            loaded = Scenario.from_dict(json.load(handle))
        assert loaded == s

    def test_from_json_accepts_text_and_path(self, tmp_path):
        s = tiny_scenario()
        assert Scenario.from_json(s.to_json()) == s
        path = tmp_path / "s.json"
        s.to_json(path)
        assert Scenario.from_json(path) == s

    @pytest.mark.parametrize("dataset", registry.names("dataset"))
    def test_round_trip_every_dataset(self, dataset):
        s = tiny_scenario(data=dataset)
        assert Scenario.from_dict(json.loads(s.to_json())).data.name == dataset

    @pytest.mark.parametrize("partitioner", registry.names("partitioner"))
    def test_round_trip_every_partitioner(self, partitioner):
        s = tiny_scenario(partition=partitioner)
        assert Scenario.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("channel", registry.names("channel"))
    def test_round_trip_every_channel(self, channel):
        s = tiny_scenario(channel=channel)
        assert Scenario.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("latency", registry.names("latency"))
    def test_round_trip_every_latency_model(self, latency):
        s = tiny_scenario(**{"timing.latency": latency})
        assert Scenario.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("mechanism", registry.names("mechanism"))
    def test_round_trip_every_mechanism(self, mechanism):
        s = tiny_scenario(mechanism=mechanism)
        assert Scenario.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("model", registry.names("model"))
    def test_round_trip_every_model(self, model):
        # Validation only resolves the name; params stay as data.
        s = tiny_scenario(model=model)
        assert Scenario.from_dict(s.to_dict()) == s

    def test_tuple_params_normalize_to_lists(self):
        a = tiny_scenario(**{"mechanism.params": {"num_groups": None}})
        spec = ComponentSpec("x", {"values": (1, 2)})
        assert spec.params == {"values": [1, 2]}
        assert a == Scenario.from_dict(a.to_dict())

    def test_partial_dict_takes_defaults(self):
        s = Scenario.from_dict({"num_workers": 4})
        assert s.num_workers == 4
        assert s.mechanism.name == "air_fedga"
        assert s.timing == TimingSpec()


class TestValidation:
    def test_unknown_component_names_fail_at_construction(self):
        with pytest.raises(UnknownComponentError, match="unknown dataset"):
            tiny_scenario(data="synthetic-mnst")
        with pytest.raises(UnknownComponentError, match="unknown partition strategy"):
            tiny_scenario(partition="label-skw")
        with pytest.raises(UnknownComponentError, match="unknown channel kind"):
            tiny_scenario(channel="awgn")
        with pytest.raises(UnknownComponentError, match="unknown latency model"):
            tiny_scenario(**{"timing.latency": "unifrom"})
        with pytest.raises(UnknownComponentError, match="unknown mechanism"):
            tiny_scenario(mechanism="air_fedgaa")

    def test_unknown_mechanism_params_fail_at_construction(self):
        with pytest.raises(TypeError, match="accepted parameters"):
            tiny_scenario(**{"mechanism.params": {"grouping": "greedy"}})

    def test_unknown_section_field_fails(self):
        with pytest.raises(ValueError, match="unknown field"):
            Scenario.from_dict({"training": {"max_round": 5}})

    def test_unknown_top_level_field_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'mechanism'"):
            Scenario.from_dict({"mechansim": {"name": "fedavg"}})

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            Scenario(num_workers=0)
        with pytest.raises(ValueError, match="seed"):
            Scenario(seed=-1)
        with pytest.raises(ValueError, match="base_local_time"):
            TimingSpec(base_local_time=0.0)
        with pytest.raises(ValueError, match="max_rounds"):
            TrainingSpec(max_rounds=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("training.learning_rate", math.nan),
            ("timing.base_local_time", math.nan),
            ("training.max_time", math.nan),
            ("training.max_time", math.inf),
            ("num_workers", 4.5),
            ("seed", 1.5),
            ("num_workers", "8"),
        ],
    )
    def test_non_finite_and_non_integer_numbers_fail_at_construction(
        self, field, value
    ):
        """Each of these used to run to a NaN loss or die deep inside NumPy."""
        with pytest.raises(ValueError, match=f"^{field} must be") as excinfo:
            tiny_scenario(**{field: value})
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value",
        [("num_workers", np.int64(20)), ("seed", np.int64(3)),
         ("training.batch_size", np.int64(8)), ("training.learning_rate", np.float32(0.05))],
        ids=["num_workers", "seed", "batch_size", "learning_rate"],
    )
    def test_numpy_numbers_are_stored_as_python_numbers(self, field, value):
        """A NumPy count or rate passes the rule an ``FLExperiment`` applies,
        and is stored as the Python number, so the JSON round-trip holds."""
        scenario = lr_mnist_config().with_(**{field: value})
        stored = functools.reduce(getattr, field.split("."), scenario)
        assert type(stored) is type(value.item()) and stored == value.item()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_zero_rounds_is_the_round_zero_only_run(self):
        history = tiny_scenario(**{"training.max_rounds": 0}).run()
        assert [record.round_index for record in history.records] == [0]

    @pytest.mark.parametrize(
        "dotted, section_type",
        [
            ("parallelism", Scenario),
            ("algorithm.parallelism", AirFedGAConfig),
            ("training.engine", TrainingSpec),
            ("algorithm.aircomp.power_control_warm_start", AirCompConfig),
            ("algorithm.aircomp.power_control_cache_rel_tol", AirCompConfig),
            ("algorithm.aircomp.power_control_cache", AirCompConfig),
            ("data.materialization", DataSpec),
            ("algorithm.aircomp.bandwidth_hz", AirCompConfig),
            ("algorithm.grouping.emd_weight", GroupingConfig),
            ("algorithm.convergence.model_bound_W", ConvergenceConfig),
        ],
    )
    def test_retired_options_are_unknown_fields(self, dotted, section_type):
        """A document that still names a deleted knob fails at ``from_dict``
        — not at build time inside a sweep worker — naming the section, the
        field and what the section accepts."""
        *sections, retired = dotted.split(".")
        document = {retired: 2}
        for section in reversed(sections):
            document = {section: document}
        with pytest.raises(ValueError) as excinfo:
            Scenario.from_dict(document)
        message = str(excinfo.value)
        accepted = sorted(f.name for f in dataclasses.fields(section_type))
        assert retired not in accepted
        assert message.startswith(
            f"{'.'.join(['scenario', *sections])} has unknown field(s) ['{retired}']"
        )
        assert message.endswith(f"(accepted: {accepted})")


class TestBuilder:
    def test_default_is_valid_and_fast(self):
        s = Scenario.default()
        assert s.mechanism.name == "air_fedga"
        assert s.training.max_rounds <= 10

    def test_with_replaces_scalars_and_components(self):
        s = Scenario.default().with_(
            num_workers=4,
            mechanism="tifl",
            **{"timing.base_local_time": 1.5, "mechanism.params": {"num_tiers": 2}},
        )
        assert s.num_workers == 4
        assert s.mechanism == ComponentSpec("tifl", {"num_tiers": 2})
        assert s.timing.base_local_time == 1.5

    def test_with_component_shorthand_resets_params(self):
        s = tiny_scenario(**{"mechanism.params": {"staleness": "polynomial"}})
        switched = s.with_(mechanism="fedavg")
        assert switched.mechanism == ComponentSpec("fedavg")

    def test_with_section_mapping_merges(self):
        s = tiny_scenario().with_(training={"max_rounds": 2})
        assert s.training.max_rounds == 2
        assert s.training.batch_size == tiny_scenario().training.batch_size

    def test_with_unknown_field_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'mechanism'"):
            tiny_scenario().with_(mechansim="fedavg")

    def test_with_refuses_the_retired_parallelism_section(self):
        with pytest.raises(ValueError, match="unknown scenario field 'parallelism'"):
            tiny_scenario().with_(parallelism={"mode": "processes", "num_processes": 2})

    def test_with_does_not_mutate_the_original(self):
        s = tiny_scenario()
        s.with_(num_workers=3)
        assert s.num_workers == 6


class TestBuildAndRun:
    def test_build_returns_ready_trainer(self):
        trainer = tiny_scenario().build()
        assert isinstance(trainer, AirFedGATrainer)
        assert trainer.exp.num_workers == 6

    def test_mechanism_params_reach_the_trainer(self):
        trainer = tiny_scenario(
            mechanism={"name": "tifl", "params": {"num_tiers": 2}}
        ).build()
        assert isinstance(trainer, TiFLTrainer)
        assert trainer.num_tiers == 2

    def test_run_honours_the_budget(self):
        history = tiny_scenario().run()
        assert history.total_rounds == 4
        assert history.mechanism == "air_fedga"

    def test_flatten_respected(self):
        exp = tiny_scenario().build_experiment()
        assert exp.dataset.sample_shape == (64,)
        exp_img = tiny_scenario(data={"flatten": False}).build_experiment()
        assert exp_img.dataset.sample_shape == (1, 8, 8)
