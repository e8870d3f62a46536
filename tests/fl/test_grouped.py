"""Tests for the shared grouping-asynchronous event loop."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest

from repro.fl import AirFedGATrainer, FLExperiment
from repro.fl.grouped import GroupedAsyncTrainer
from repro.nn import LogisticRegressionMLP
from repro.sim import HeterogeneityModel, LatencyTable


class TestAbstractHooks:
    def test_base_class_requires_build_groups(self, small_experiment):
        with pytest.raises(NotImplementedError):
            GroupedAsyncTrainer(small_experiment)


class _RaggedGroups(AirFedGATrainer):
    """Fixed groups of sizes 2, 3, 1, 2 in a scrambled member order."""

    def build_groups(self):
        return [[3, 0], [1, 4, 6], [2], [5, 7]]


def _per_group_first_dispatch(trainer):
    """The loop ``run`` used before the first dispatch was batched."""
    queue = []
    for g in range(len(trainer.groups)):
        trainer._dispatch_group(queue, g, 0.0, 1)
    return queue


class TestFirstDispatch:
    """One pass over the flat member array == one ``_dispatch_group`` per group."""

    @pytest.mark.parametrize("jitter_std", [0.0, 0.3])
    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_pop_order_ready_times_and_counters(
        self, small_experiment, jitter_std, heterogeneous
    ):
        latency = LatencyTable(
            num_workers=8,
            base_time=2.0,
            heterogeneity=HeterogeneityModel(num_workers=8, seed=5) if heterogeneous else None,
            jitter_std=jitter_std,
            seed=4,
        )
        # One experiment each: trainers of one experiment share its population.
        batched, looped = (
            _RaggedGroups(dataclasses.replace(small_experiment, latency=latency, population=None))
            for _ in range(2)
        )
        queue_a = batched._dispatch_all()
        queue_b = _per_group_first_dispatch(looped)
        pops_a = [heapq.heappop(queue_a) for _ in range(4)]
        pops_b = [heapq.heappop(queue_b) for _ in range(4)]
        assert pops_a == pops_b  # exact floats, same order
        if jitter_std == 0.0 and not heterogeneous:
            # Every ready time ties: the group id breaks it.
            assert pops_a == [(2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3)]
        assert np.array_equal(
            batched.worker_state.dispatches, looped.worker_state.dispatches
        )
        assert batched.worker_state.dispatches.tolist() == [1] * 8

    def test_histories_identical_to_the_per_group_loop(self, small_experiment, monkeypatch):
        latency = LatencyTable(num_workers=8, base_time=2.0, jitter_std=0.2, seed=4)
        exp = dataclasses.replace(small_experiment, latency=latency, population=None)
        batched = _RaggedGroups(exp).run(max_rounds=12)
        monkeypatch.setattr(_RaggedGroups, "_dispatch_all", _per_group_first_dispatch)
        looped = _RaggedGroups(exp).run(max_rounds=12)
        assert batched.to_dict() == looped.to_dict()

    def test_coverage_error_prints_ten_ids(self, small_experiment):
        class Overlapping(AirFedGATrainer):
            def build_groups(self):
                return [list(range(8)), list(range(8)), [0, 1]]

        with pytest.raises(ValueError, match="cover every worker exactly once") as excinfo:
            Overlapping(small_experiment)
        assert "[0, 0, 0, 1, 1, 1, 2, 2, 3, 3]..." in str(excinfo.value)


class TestChannelContention:
    def _experiment_with_slow_uplink(self, small_dataset, small_partition, channel_model):
        """Workers compute quickly but the uplink burst is long (0.5 s per symbol
        batch with a paper-scale model), so aggregations must queue."""
        latency = LatencyTable(num_workers=small_partition.num_workers, base_time=0.5)
        return FLExperiment(
            dataset=small_dataset,
            partition=small_partition,
            model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8),
            latency=latency,
            channel=channel_model,
            learning_rate=0.1,
            local_steps=1,
            batch_size=8,
            eval_every=1,
            max_eval_samples=40,
            latency_model_dimension=6_400_000,  # L_u = 10 s >> compute time
        )

    def test_aggregations_serialized_on_shared_uplink(
        self, small_dataset, small_partition, channel_model
    ):
        exp = self._experiment_with_slow_uplink(small_dataset, small_partition, channel_model)
        trainer = AirFedGATrainer(exp, grouping_strategy="singleton")
        upload = trainer.aircomp_upload_latency()
        assert upload >= 9.0  # sanity on the constructed scenario
        history = trainer.run(max_rounds=12)
        times = history.times()[1:]  # skip the t=0 evaluation record
        # Consecutive global updates cannot be closer together than one upload
        # burst: the uplink carries a single aggregation at a time.
        gaps = np.diff(times)
        assert np.all(gaps >= upload - 1e-6)

    def test_contention_slows_down_many_small_groups(
        self, small_dataset, small_partition, channel_model
    ):
        """With a congested uplink, fewer groups finish more rounds per unit time
        than the same number of updates spread over many singleton groups."""
        exp = self._experiment_with_slow_uplink(small_dataset, small_partition, channel_model)
        singles = AirFedGATrainer(exp, grouping_strategy="singleton")
        h = singles.run(max_rounds=30, max_time=200.0)
        # 8 singleton groups each need a 10 s burst while computing takes only
        # 0.5 s, so the virtual time per update is bounded below by the burst.
        assert h.average_round_time() >= singles.aircomp_upload_latency() - 1e-6


class TestGroupBaseModels:
    def test_group_base_updated_only_for_participating_group(self, quiet_experiment):
        trainer = AirFedGATrainer(quiet_experiment)
        if len(trainer.groups) < 2:
            pytest.skip("need at least two groups for this test")
        trainer.run(max_rounds=1)
        # Exactly one group holds the round-1 global model; the others still
        # hold the initial model.
        fresh = [
            gid for gid, base in trainer._group_base.items()
            if np.array_equal(base, trainer.global_vector)
        ]
        assert len(fresh) == 1
