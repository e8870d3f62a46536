"""Tests for the shared grouping-asynchronous event loop."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fl import AirFedGATrainer, FLExperiment
from repro.fl.grouped import GroupedAsyncTrainer
from repro.nn import LogisticRegressionMLP
from repro.sim import BernoulliAvailability, HeterogeneityModel, LatencyTable


class TestAbstractHooks:
    def test_base_class_requires_build_groups(self, small_experiment):
        with pytest.raises(NotImplementedError):
            GroupedAsyncTrainer(small_experiment)


class _RaggedGroups(AirFedGATrainer):
    """Fixed groups of sizes 2, 3, 1, 2 in a scrambled member order."""

    def build_groups(self):
        return [[3, 0], [1, 4, 6], [2], [5, 7]]


def _per_group(experiment):
    """Every roster polled group by group: a client-state model that finds
    everyone available and lets everyone finish, but is not ``always-on``
    (and a population of its own: trainers of one experiment share it)."""
    return dataclasses.replace(
        experiment,
        population=None,
        clientstate=BernoulliAvailability(num_workers=8, availability=1.0),
    )


def _row(r):
    return r.round_index, r.time, r.group_id, r.staleness, list(r.participants)


def _rows(trainer, rounds):
    return [_row(r) for r in trainer.schedule(rounds)]


class TestFirstDispatch:
    """One pass over the flat member array == one dispatch per group."""

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
        exp = dataclasses.replace(small_experiment, latency=latency, population=None)
        batched, looped = _RaggedGroups(exp), _RaggedGroups(_per_group(exp))
        # The first row comes right after the first dispatch: nobody has
        # been re-dispatched yet.
        first = _row(next(batched.schedule(4)))
        assert first == _row(next(looped.schedule(4)))  # exact floats
        assert batched.worker_state.dispatches.tolist() == [1] * 8
        assert np.array_equal(
            batched.worker_state.dispatches, looped.worker_state.dispatches
        )
        rows = _rows(_RaggedGroups(exp), 12)
        assert rows == _rows(_RaggedGroups(_per_group(exp)), 12)
        if jitter_std == 0.0 and not heterogeneous:
            # Every ready time ties at 2.0: the group id breaks it, and the
            # uplink serializes the four commits one upload apart.
            upload = batched.aircomp_upload_latency()
            assert [r[2] for r in rows[:4]] == [0, 1, 2, 3]
            assert rows[0][1] == 2.0 + upload
            assert [r[1] for r in rows[1:4]] == [r[1] + upload for r in rows[:3]]

    def test_histories_identical_to_the_per_group_loop(self, small_experiment):
        latency = LatencyTable(num_workers=8, base_time=2.0, jitter_std=0.2, seed=4)
        exp = dataclasses.replace(small_experiment, latency=latency, population=None)
        batched = _RaggedGroups(exp).run(max_rounds=12)
        looped = _RaggedGroups(_per_group(exp)).run(max_rounds=12)
        assert batched.to_dict() == looped.to_dict()

    def test_the_schedule_drops_its_flat_members(self, small_experiment):
        schedule = _RaggedGroups(small_experiment).schedule(4)
        next(schedule)
        held = schedule.gi_frame.f_locals.values()
        assert not any(isinstance(v, np.ndarray) and v.size == 8 for v in held)

    def test_coverage_error_prints_ten_ids(self, small_experiment):
        cases = [
            # Overlap is the scheduler's check; the coverage check lists sorted ids.
            ([list(range(8)), list(range(8)), [0, 1]], "multiple groups", range(8)),
            ([list(range(8)), list(range(8, 20))], "cover every worker exactly once", range(10)),
            ([[0, 1, 2], [3, 5, 6, 7]], "cover every worker exactly once", [0, 1, 2, 3, 5, 6, 7]),
            # Eight distinct ids, one end right: the other end is checked too.
            ([[0, 1, 2, 3], [4, 5, 6, 9]], "cover every worker exactly once", [0, 1, 2, 3, 4, 5, 6, 9]),
            ([[-1, 0, 1, 2], [3, 4, 5, 7]], "cover every worker exactly once", [-1, 0, 1, 2, 3, 4, 5, 7]),
        ]
        for groups, error, ids in cases:

            class Miscovering(AirFedGATrainer):
                def build_groups(self):
                    return groups

            with pytest.raises(ValueError, match=error) as excinfo:
                Miscovering(small_experiment)
            assert str(excinfo.value).endswith(f"{list(ids)}...")


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
    def test_group_base_updated_only_for_participating_group(
        self, quiet_experiment, monkeypatch
    ):
        # Every commit trains from the global model of the round its group
        # last committed in (0: the initial model): t − τ − 1.
        trainer = AirFedGATrainer(quiet_experiment)
        if len(trainer.groups) < 2:
            pytest.skip("need at least two groups for this test")
        versions = {0: trainer.global_vector.copy()}
        bases = {}
        train, record = trainer.local_update_group, trainer.record_round

        def spy_train(ids, base, round_index, out=None):
            # One call may train several cohorts: a base row and key per member.
            keys = [round_index] * len(ids) if np.ndim(round_index) == 0 else round_index
            for key, row in zip(keys, np.broadcast_to(base, (len(ids), base.shape[-1]))):
                bases[key] = row.copy()
            return train(ids, base, round_index, out)

        def spy_record(round_index, *args, **kwargs):
            versions[round_index] = trainer.global_vector.copy()
            return record(round_index, *args, **kwargs)

        monkeypatch.setattr(trainer, "local_update_group", spy_train)
        monkeypatch.setattr(trainer, "record_round", spy_record)
        history = trainer.run(max_rounds=10)
        stale = [r for r in history.records[1:] if r.staleness > 0]
        assert stale  # some group trained from an old version
        for r in history.records[1:]:
            expected = versions[r.round_index - r.staleness - 1]
            np.testing.assert_array_equal(bases[r.round_index], expected)
