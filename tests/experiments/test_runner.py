"""Unit tests for building and comparing catalogue scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import lr_mnist_config, run_comparison


def tiny_scenario(**overrides):
    scenario = lr_mnist_config(
        num_workers=6, num_train=120, image_size=8, hidden=8, max_rounds=3
    ).with_(
        training={
            "eval_every": 1, "max_eval_samples": 40, "local_steps": 1, "batch_size": 16
        }
    )
    return scenario.with_(**overrides) if overrides else scenario


class TestBuildExperiment:
    def test_builds_consistent_experiment(self):
        exp = tiny_scenario().build_experiment()
        assert exp.num_workers == 6
        assert exp.partition.num_workers == 6
        assert exp.latency.num_workers == 6
        assert exp.channel.num_workers == 6

    def test_flattening_applied(self):
        exp = tiny_scenario().build_experiment()
        assert exp.dataset.x_train.ndim == 2

    def test_partition_strategies(self):
        iid = tiny_scenario(partition="iid").build_experiment()
        skew = tiny_scenario(partition="label-skew").build_experiment()
        dirichlet = tiny_scenario(partition="dirichlet").build_experiment()
        # label-skew workers hold fewer distinct classes than IID workers.
        def mean_classes(exp):
            return (exp.partition.class_counts() > 0).sum(axis=1).mean()
        assert mean_classes(skew) < mean_classes(iid)
        assert dirichlet.num_workers == 6

    def test_unknown_partition_strategy(self):
        with pytest.raises(KeyError):
            tiny_scenario(partition="sorted")

    def test_same_seed_same_data(self):
        a = tiny_scenario().build_experiment()
        b = tiny_scenario().build_experiment()
        np.testing.assert_array_equal(a.dataset.x_train, b.dataset.x_train)
        np.testing.assert_array_equal(
            a.latency.nominal, b.latency.nominal
        )


class TestRunComparison:
    def test_runs_all_requested_under_the_budget(self):
        histories = run_comparison(tiny_scenario(), mechanisms=("fedavg", "air_fedga"))
        assert list(histories) == ["fedavg", "air_fedga"]
        for name, history in histories.items():
            assert history.mechanism == name
            assert history.total_rounds == 3

    def test_histories_are_time_ordered_with_bounded_accuracy(self):
        histories = run_comparison(tiny_scenario(), mechanisms=("air_fedavg", "air_fedga"))
        for history in histories.values():
            times, losses, accs = history.times(), history.losses(), history.accuracies()
            assert len(times) == len(losses) == len(accs) == len(history)
            assert np.all(np.diff(times) >= 0)
            assert np.all((accs >= 0.0) & (accs <= 1.0))

    def test_ignores_the_scenarios_own_mechanism(self):
        scenario = tiny_scenario(
            mechanism={"name": "tifl", "params": {"num_tiers": 2}}
        )
        histories = run_comparison(scenario, mechanisms=("air_fedavg",))
        assert histories["air_fedavg"].mechanism == "air_fedavg"

    def test_trainer_kwargs_forwarded(self):
        histories = run_comparison(
            tiny_scenario(),
            mechanisms=("dynamic",),
            trainer_kwargs={"dynamic": {"select_fraction": 1.0}},
        )
        assert histories["dynamic"].column("num_participants")[-1] == 6
