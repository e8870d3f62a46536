"""Tests for the five federated mechanisms (unit-level behaviour + short runs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.fl import (
    AirFedAvgTrainer,
    AirFedGATrainer,
    DynamicTrainer,
    FedAvgTrainer,
    TiFLTrainer,
    build_trainer,
)


class TestRegistry:
    def test_contains_all_registered_mechanisms(self):
        assert set(registry.names("mechanism")) == {
            "fedavg",
            "tifl",
            "air_fedavg",
            "dynamic",
            "air_fedga",
            "fedprox",
            "feddyn",
            "fedasync",
        }

    def test_build_trainer(self, small_experiment):
        trainer = build_trainer("fedavg", small_experiment)
        assert isinstance(trainer, FedAvgTrainer)

    def test_build_trainer_unknown(self, small_experiment):
        with pytest.raises(KeyError, match="unknown mechanism"):
            build_trainer("fedsgd", small_experiment)

    def test_kwargs_forwarded(self, small_experiment):
        trainer = build_trainer("dynamic", small_experiment, select_fraction=0.5)
        assert trainer.select_fraction == 0.5


class TestFedAvg:
    def test_short_run_produces_history(self, small_experiment):
        history = FedAvgTrainer(small_experiment).run(max_rounds=3)
        assert history.mechanism == "fedavg"
        assert history.total_rounds == 3
        # Initial evaluation + 3 rounds with eval_every=1.
        assert len(history) == 4

    def test_times_strictly_increase(self, small_experiment):
        history = FedAvgTrainer(small_experiment).run(max_rounds=3)
        times = history.times()
        assert np.all(np.diff(times) > 0)

    def test_all_workers_participate(self, small_experiment):
        history = FedAvgTrainer(small_experiment).run(max_rounds=2)
        assert history.records[-1].num_participants == small_experiment.num_workers

    def test_no_transmit_energy_for_oma(self, small_experiment):
        history = FedAvgTrainer(small_experiment).run(max_rounds=2)
        assert history.total_energy == 0.0

    def test_max_time_stops_run(self, small_experiment):
        history = FedAvgTrainer(small_experiment).run(max_rounds=50, max_time=1.0)
        assert history.total_rounds < 50

    def test_first_round_is_exact_weighted_average(self, quiet_experiment):
        trainer = FedAvgTrainer(quiet_experiment)
        initial = trainer.global_vector.copy()
        locals_ = [
            trainer.local_update_group([w], initial, 1, out=np.empty((1, initial.size)))[0]
            for w in range(quiet_experiment.num_workers)
        ]
        alphas = trainer.data_sizes / trainer.total_data
        expected = sum(a * v for a, v in zip(alphas, locals_))
        trainer.run(max_rounds=1)
        np.testing.assert_allclose(trainer.global_vector, expected)


class TestAirFedAvg:
    def test_short_run(self, small_experiment):
        history = AirFedAvgTrainer(small_experiment).run(max_rounds=3)
        assert history.total_rounds == 3
        assert history.mechanism == "air_fedavg"

    def test_records_energy_and_power_control(self, small_experiment):
        history = AirFedAvgTrainer(small_experiment).run(max_rounds=2)
        last = history.records[-1]
        assert last.round_energy_j > 0
        assert np.isfinite(last.sigma) and last.sigma > 0
        assert np.isfinite(last.eta) and last.eta > 0

    def test_round_time_shorter_than_fedavg(self, small_experiment, quiet_experiment):
        """AirComp upload is one symbol burst; OMA uploads are sequential."""
        air = AirFedAvgTrainer(small_experiment).run(max_rounds=2)
        oma = FedAvgTrainer(quiet_experiment).run(max_rounds=2)
        assert air.average_round_time() <= oma.average_round_time() + 1e-9

    def test_zero_staleness(self, small_experiment):
        history = AirFedAvgTrainer(small_experiment).run(max_rounds=3)
        assert history.max_staleness() == 0


class TestDynamic:
    def test_selection_size(self, small_experiment):
        trainer = DynamicTrainer(small_experiment, select_fraction=0.5)
        selected = trainer.select_workers(1)
        assert len(selected) == 4
        assert len(set(selected)) == len(selected)

    def test_selection_at_least_one(self, small_experiment):
        trainer = DynamicTrainer(small_experiment, select_fraction=0.01)
        assert len(trainer.select_workers(1)) == 1

    def test_selection_changes_with_round(self, small_experiment):
        trainer = DynamicTrainer(small_experiment, select_fraction=0.4)
        sels = {tuple(trainer.select_workers(r)) for r in range(6)}
        assert len(sels) > 1

    def test_invalid_parameters(self, small_experiment):
        with pytest.raises(ValueError):
            DynamicTrainer(small_experiment, select_fraction=0.0)
        with pytest.raises(ValueError):
            DynamicTrainer(small_experiment, exploration=1.5)

    def test_short_run_participants_bounded(self, small_experiment):
        trainer = DynamicTrainer(small_experiment, select_fraction=0.3)
        history = trainer.run(max_rounds=3)
        for rec in history.records[1:]:
            assert 1 <= rec.num_participants <= small_experiment.num_workers


@pytest.mark.parametrize("value", [0, 2.5, True, np.int64(0)], ids=repr)
@pytest.mark.parametrize(
    ("mechanism", "name"), [("tifl", "num_tiers"), ("fedasync", "buffer_size")]
)
def test_a_count_parameter_is_a_positive_integer(small_experiment, mechanism, name, value):
    """Nothing is coerced: ``2.5`` is not 2 tiers, nor ``True`` a buffer of 1;
    a NumPy integer passes the type check and is refused for its value."""
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        build_trainer(mechanism, small_experiment, **{name: value})


class TestTiFL:
    def test_groups_cover_all_workers(self, small_experiment):
        trainer = TiFLTrainer(small_experiment, num_tiers=3)
        assert sorted(w for g in trainer.groups for w in g) == list(range(8))

    def test_tiers_are_time_homogeneous(self, small_experiment):
        trainer = TiFLTrainer(small_experiment, num_tiers=3)
        times = small_experiment.latency.nominal
        maxima = [times[g].max() for g in trainer.groups]
        minima = [times[g].min() for g in trainer.groups]
        order = np.argsort(maxima)
        for a, b in zip(order[:-1], order[1:]):
            assert maxima[a] <= minima[b] + 1e-9

    def test_invalid_tier_count(self, small_experiment):
        """The class itself refuses, not only the registry; a string count
        raises the named ValueError rather than a comparison TypeError."""
        for bad in (0, -1, "3"):
            with pytest.raises(ValueError, match="num_tiers must be an integer >= 1"):
                TiFLTrainer(small_experiment, num_tiers=bad)

    def test_short_run_has_staleness(self, small_experiment):
        history = TiFLTrainer(small_experiment, num_tiers=3).run(max_rounds=8)
        assert history.total_rounds == 8
        # With several asynchronous tiers some update must be stale.
        assert history.max_staleness() >= 1

    def test_no_transmit_energy_for_oma(self, small_experiment):
        history = TiFLTrainer(small_experiment, num_tiers=3).run(max_rounds=4)
        assert history.total_energy == 0.0


class TestAirFedGA:
    def test_groups_cover_all_workers(self, small_experiment):
        trainer = AirFedGATrainer(small_experiment)
        assert sorted(w for g in trainer.groups for w in g) == list(range(8))

    def test_grouping_strategies(self, small_experiment):
        greedy = AirFedGATrainer(small_experiment, grouping_strategy="greedy")
        singleton = AirFedGATrainer(small_experiment, grouping_strategy="singleton")
        assert singleton.grouping_result.num_groups == 8
        assert greedy.grouping_result.num_groups <= 8

    def test_unknown_grouping_strategy(self, small_experiment):
        with pytest.raises(ValueError):
            AirFedGATrainer(small_experiment, grouping_strategy="kmeans")

    @pytest.mark.parametrize("num_groups", [None, 0, True, 2.5])
    def test_num_groups_is_none_or_a_positive_integer(self, small_experiment, num_groups):
        """``None`` is one group per ten workers (at least one); nothing is coerced."""
        if num_groups is None:
            trainer = AirFedGATrainer(small_experiment, grouping_strategy="tier")
            assert trainer.grouping_result.num_groups == 1
            return
        with pytest.raises(ValueError, match="num_groups must be None or an integer >= 1"):
            AirFedGATrainer(small_experiment, grouping_strategy="tier", num_groups=num_groups)

    def test_short_run(self, small_experiment):
        history = AirFedGATrainer(small_experiment).run(max_rounds=6)
        assert history.total_rounds == 6
        assert history.mechanism == "air_fedga"

    def test_records_energy_and_group_ids(self, small_experiment):
        trainer = AirFedGATrainer(small_experiment)
        history = trainer.run(max_rounds=6)
        group_ids = {r.group_id for r in history.records if r.round_index > 0}
        assert group_ids.issubset(set(range(len(trainer.groups))))
        assert history.total_energy > 0

    def test_faster_groups_participate_more(self, small_experiment):
        trainer = AirFedGATrainer(small_experiment)
        if len(trainer.groups) < 2:
            pytest.skip("greedy grouping produced a single group on this fixture")
        history = trainer.run(max_rounds=12)
        times = small_experiment.latency.nominal
        group_time = [times[g].max() for g in trainer.groups]
        counts = np.zeros(len(trainer.groups))
        for rec in history.records[1:]:
            counts[rec.group_id] += 1
        assert counts[np.argmin(group_time)] >= counts[np.argmax(group_time)]

    def test_max_rounds_respected(self, small_experiment):
        history = AirFedGATrainer(small_experiment).run(max_rounds=4)
        assert history.total_rounds == 4

    def test_max_time_respected(self, small_experiment):
        history = AirFedGATrainer(small_experiment).run(max_rounds=100, max_time=20.0)
        assert history.total_time <= 20.0 + small_experiment.latency.nominal.max() + 1.0
        assert history.total_rounds < 100

    def test_deterministic_given_seed(self, quiet_experiment):
        a = AirFedGATrainer(quiet_experiment).run(max_rounds=4)
        b_trainer = AirFedGATrainer(quiet_experiment)
        # Fresh trainer on the same experiment reproduces the same history.
        b = b_trainer.run(max_rounds=4)
        np.testing.assert_allclose(a.accuracies(), b.accuracies())
        np.testing.assert_allclose(a.times(), b.times())


#: Mechanisms over all three schedules, each once a hand-written ``run``
#: loop of its own (tifl shares air_fedga's grouped schedule — listed
#: anyway because its loop once disagreed with fedavg on ``max_rounds=0``).
RUN_LOOPS = ["fedavg", "air_fedavg", "dynamic", "tifl", "air_fedga", "fedasync"]


@pytest.mark.parametrize("mechanism", RUN_LOOPS)
class TestRunBoundaries:
    """``BaseTrainer.run``: every schedule validates and starts alike."""

    def test_zero_rounds_returns_the_initial_evaluation_only(
        self, mechanism, small_experiment
    ):
        history = build_trainer(mechanism, small_experiment).run(max_rounds=0)
        assert [r.round_index for r in history.records] == [0]
        assert history.total_time == 0.0

    @pytest.mark.parametrize("bad", [-1, 2.5])
    def test_max_rounds_must_be_a_non_negative_integer(
        self, mechanism, small_experiment, bad
    ):
        trainer = build_trainer(mechanism, small_experiment)
        with pytest.raises(ValueError, match="max_rounds"):
            trainer.run(max_rounds=bad)
        assert len(trainer.history) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_max_time_must_be_finite_and_non_negative(
        self, mechanism, small_experiment, bad
    ):
        trainer = build_trainer(mechanism, small_experiment)
        with pytest.raises(ValueError, match="max_time"):
            trainer.run(max_rounds=2, max_time=bad)
        assert len(trainer.history) == 0

    def test_second_run_is_refused_with_a_clear_error(
        self, mechanism, small_experiment
    ):
        trainer = build_trainer(mechanism, small_experiment)
        history = trainer.run(max_rounds=2)
        before = len(history)
        with pytest.raises(RuntimeError, match="already run; build a new one"):
            trainer.run(max_rounds=2)
        assert len(history) == before
