"""Tests for the shared grouping-asynchronous event loop."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest

from repro.channel import StaticChannel
from repro.core import grouping
from repro.core.grouping import GROUPING_STRATEGIES
from repro.core.mechanism import GroupAsyncScheduler
from repro.core.population import Population
from repro.data import make_mnist_like
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


def _forty_workers():
    """40 workers on a replicated store of their own, jittered heterogeneous times."""
    n = 40
    dataset = make_mnist_like(num_train=128, num_test=32, image_size=8, seed=1).flattened()
    latency = LatencyTable(
        num_workers=n, base_time=2.0, heterogeneity=HeterogeneityModel(num_workers=n, seed=5),
        jitter_std=0.3, seed=4,
    )  # fmt: skip
    return FLExperiment(
        dataset=dataset,
        partition=None,
        model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=8, seed=3),
        latency=latency,
        channel=StaticChannel(num_workers=n, seed=4),
        population=Population.replicated(dataset, num_workers=n, shard_size=16, latency=latency),
        max_eval_samples=32,
    )


def _fixed(groups):
    class Fixed(AirFedGATrainer):
        def build_groups(self):
            return groups

    return Fixed


class TestBlockEdges:
    """Blocks of at most 5 members: the 40-worker passes over all members
    (first dispatch, membership check, cover check) cross many block edges."""

    # Scrambled members, ragged sizes; the 7-member group is a block alone.
    GROUPS = [[3, 0, 9], [1, 4], [12, 6, 2, 7, 5, 8, 10], [11], [13, 15, 14, 16],
              [39, 17, 20, 18], [19, 21, 22, 23, 24, 25], [26, 30, 27],
              [28, 29, 31, 32, 33], [34, 35], [36, 37, 38]]  # fmt: skip

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(grouping, "_BLOCK_MEMBERS", 5)

    def test_first_dispatch_equals_one_dispatch_per_group(self):
        blocked, looped = (_fixed(self.GROUPS)(_forty_workers()) for _ in range(2))
        assert len(list(grouping.member_blocks(blocked.groups))) == 8
        queue, reference = blocked._first_dispatch(), []
        for g in range(len(looped.groups)):
            looped._dispatch_group(reference, g, 0.0, 1)
        pops = [heapq.heappop(queue) for _ in range(len(queue))]
        assert pops == [heapq.heappop(reference) for _ in range(len(reference))]  # exact floats
        assert len({t for t, _ in pops}) == len(pops) and pops != sorted(pops, key=lambda p: p[1])
        assert blocked.worker_state.dispatches.tolist() == [1] * 40
        assert np.array_equal(blocked.worker_state.dispatches, looped.worker_state.dispatches)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_an_overlap_across_a_block_edge_is_refused(self, ascending):
        # Worker 4 ends the first block and opens the second.
        groups = [[0, 1, 2, 3, 4], [4, 5, 6], [7, 8]]
        if not ascending:
            groups = [g[::-1] for g in groups]
        with pytest.raises(ValueError, match=r"multiple groups: \[4\]"):
            GroupAsyncScheduler(groups)
        # Worker 16 closes one block of the trainer's groups and opens the next.
        with pytest.raises(ValueError, match=r"multiple groups: \[16\]"):
            _fixed([*self.GROUPS[:5], [16, *self.GROUPS[5]], *self.GROUPS[6:]])(_forty_workers())

    @pytest.mark.parametrize("ascending", [True, False])
    def test_a_gap_across_a_block_edge_is_refused(self, ascending):
        # Worker 5 is missing where the first block ends; 40 takes its place.
        groups = [list(range(0, 5)), list(range(6, 11)), list(range(11, 41))]
        if not ascending:
            groups = [g[::-1] for g in groups]
        GroupAsyncScheduler(groups)  # disjoint: the scheduler has no quarrel
        with pytest.raises(ValueError, match=r"exactly once; got coverage \[0, 1, 2, 3, 4, 6,"):
            _fixed(groups)(_forty_workers())


class TestGroupsAreInt64Arrays:
    """A grouping has one form from the strategy to the commit rows."""

    @pytest.mark.parametrize("strategy", sorted(GROUPING_STRATEGIES))
    def test_strategy_trainer_and_scheduler_share_the_arrays(self, small_experiment, strategy):
        trainer = AirFedGATrainer(small_experiment, grouping_strategy=strategy, num_groups=3)
        groups = trainer.grouping_result.groups
        assert all(isinstance(g, np.ndarray) and g.dtype == np.int64 for g in groups)
        assert len(trainer.groups) == len(trainer.scheduler._members) == len(groups)
        assert all(a is b for a, b in zip(trainer.groups, groups))
        assert all(a is b for a, b in zip(trainer.scheduler._members, trainer.groups))

    def test_a_hooks_lists_become_the_rows_arrays(self, small_experiment):
        trainer = _RaggedGroups(small_experiment)
        assert [g.tolist() for g in trainer.groups] == _RaggedGroups.build_groups(trainer)
        assert all(g.dtype == np.int64 for g in trainer.groups)
        row = next(trainer.schedule(1))
        assert row.participants is trainer.groups[row.group_id]
        assert row.cohort.ids is row.participants


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
        assert history.max_staleness() > 0  # some group trained from an old version
        for t, staleness in zip(history.column("round_index")[1:], history.column("staleness")[1:]):
            expected = versions[t - staleness - 1]
            np.testing.assert_array_equal(bases[t], expected)
