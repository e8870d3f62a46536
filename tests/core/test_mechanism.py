"""Unit tests for the Air-FedGA protocol state machine (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GroupAsyncScheduler, GroupState


class TestGroupState:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            GroupState(group_id=0, members=[])

    def test_rejects_duplicate_members(self):
        with pytest.raises(ValueError):
            GroupState(group_id=0, members=[1, 1])

    def test_complete_and_reset(self):
        state = GroupState(group_id=0, members=[1, 2])
        state.ready_count = 2
        assert state.is_complete()
        state.reset_ready()
        assert state.ready_count == 0 and not state.is_complete()


class TestSchedulerConstruction:
    def test_rejects_empty_grouping(self):
        with pytest.raises(ValueError):
            GroupAsyncScheduler([])

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="multiple groups"):
            GroupAsyncScheduler([[0, 1], [1, 2]])

    @pytest.mark.parametrize("as_array", [False, True])
    def test_rejects_duplicate_within_one_group(self, as_array):
        """The scheduler's flat check covers what GroupState checks per group."""
        groups = [[0, 1], [2, 3, 2]]
        if as_array:
            groups = [np.array(g, dtype=np.int64) for g in groups]
        with pytest.raises(ValueError, match="duplicate workers in group"):
            GroupAsyncScheduler(groups)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one member"):
            GroupAsyncScheduler([[0, 1], []])

    def test_group_lookup(self):
        sched = GroupAsyncScheduler([[0, 1], [2]])
        assert isinstance(sched.group(0), GroupState)
        assert sched.num_groups == 2
        assert sched.group_of(2) == 1
        assert sched.group(1).members == [2]

    def test_unknown_worker_and_group(self):
        sched = GroupAsyncScheduler([[0]])
        with pytest.raises(KeyError):
            sched.group_of(5)
        with pytest.raises(KeyError):
            sched.group(3)

    def test_workers_listing(self):
        sched = GroupAsyncScheduler([[3, 1], [0, 2]])
        assert sched.workers() == [0, 1, 2, 3]


class TestProtocol:
    def test_ready_completes_group_only_when_all_members_ready(self):
        sched = GroupAsyncScheduler([[0, 1, 2]])
        assert sched.receive_ready(0) is None
        assert sched.receive_ready(1) is None
        assert sched.receive_ready(2) == 0

    def test_group_zero_completion_is_reported(self):
        """Regression test: group id 0 must not be confused with 'not complete'."""
        sched = GroupAsyncScheduler([[7]])
        assert sched.receive_ready(7) == 0

    def test_duplicate_ready_rejected(self):
        sched = GroupAsyncScheduler([[0, 1]])
        sched.receive_ready(0)
        with pytest.raises(ValueError, match="READY twice"):
            sched.receive_ready(0)

    def test_complete_aggregation_requires_full_group(self):
        sched = GroupAsyncScheduler([[0, 1]])
        sched.receive_ready(0)
        with pytest.raises(RuntimeError):
            sched.complete_aggregation(0)

    def test_round_counter_advances(self):
        sched = GroupAsyncScheduler([[0], [1]])
        sched.receive_ready(0)
        sched.complete_aggregation(0)
        sched.receive_ready(1)
        sched.complete_aggregation(1)
        assert sched.current_round == 2

    def test_ready_counter_resets_after_aggregation(self):
        sched = GroupAsyncScheduler([[0, 1]])
        for w in (0, 1):
            sched.receive_ready(w)
        sched.complete_aggregation(0)
        # The group can participate again.
        assert sched.receive_ready(0) is None
        assert sched.receive_ready(1) == 0


class TestStaleness:
    def test_first_participation_has_zero_staleness(self):
        sched = GroupAsyncScheduler([[0], [1]])
        sched.receive_ready(0)
        event = sched.complete_aggregation(0)
        assert event.round_index == 1
        assert event.staleness == 0

    def test_paper_fig2_example(self):
        """Reproduce the staleness bookkeeping of the paper's Fig. 2.

        Three groups; group 1 aggregates at rounds 1 and 2, group 2 at round
        3, group 3 at round 4.  Group 3 received the global model at round 0
        (before round 1), so its staleness at round 4 is 3.
        """
        sched = GroupAsyncScheduler([[0, 1], [2, 3], [4, 5]])

        def aggregate(group_members, gid):
            for w in group_members:
                sched.receive_ready(w)
            return sched.complete_aggregation(gid)

        e1 = aggregate([0, 1], 0)
        e2 = aggregate([0, 1], 0)
        e3 = aggregate([2, 3], 1)
        e4 = aggregate([4, 5], 2)
        assert (e1.round_index, e1.staleness) == (1, 0)
        assert (e2.round_index, e2.staleness) == (2, 0)
        assert (e3.round_index, e3.staleness) == (3, 2)
        assert (e4.round_index, e4.staleness) == (4, 3)

    def test_staleness_grows_while_group_waits(self):
        sched = GroupAsyncScheduler([[0], [1]])
        for _ in range(5):
            sched.receive_ready(0)
            sched.complete_aggregation(0)
        sched.receive_ready(1)
        event = sched.complete_aggregation(1)
        assert event.staleness == 5

    def test_staleness_resets_after_participation(self):
        sched = GroupAsyncScheduler([[0], [1]])
        sched.receive_ready(0); sched.complete_aggregation(0)
        sched.receive_ready(1); sched.complete_aggregation(1)
        sched.receive_ready(1)
        event = sched.complete_aggregation(1)
        assert event.staleness == 0

    def test_max_staleness_and_profile(self):
        sched = GroupAsyncScheduler([[0], [1]])
        for _ in range(3):
            sched.receive_ready(0)
            sched.complete_aggregation(0)
        sched.receive_ready(1)
        sched.complete_aggregation(1)
        assert sched.staleness_profile() == [0, 0, 0, 3]
        assert sched.max_staleness() == 3

    def test_participation_counts(self):
        sched = GroupAsyncScheduler([[0], [1]])
        for _ in range(2):
            sched.receive_ready(0)
            sched.complete_aggregation(0)
        assert sched.participation_counts() == [2, 0]

    def test_base_version_recorded(self):
        sched = GroupAsyncScheduler([[0], [1]])
        sched.receive_ready(0); sched.complete_aggregation(0)
        sched.receive_ready(0); e = sched.complete_aggregation(0)
        assert e.base_version == 1

    def test_history_is_a_copy(self):
        sched = GroupAsyncScheduler([[0]])
        sched.receive_ready(0)
        sched.complete_aggregation(0)
        sched.history.clear()
        assert len(sched.history) == 1
