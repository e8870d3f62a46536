"""Unit tests for the Air-FedGA protocol state machine (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroupAsyncScheduler


class TestSchedulerConstruction:
    def test_rejects_empty_grouping(self):
        with pytest.raises(ValueError):
            GroupAsyncScheduler([])

    def test_overlap_error_lists_at_most_ten_workers(self):
        with pytest.raises(ValueError) as excinfo:
            GroupAsyncScheduler([list(range(30)), list(range(30))])
        assert str(excinfo.value).endswith(f"{list(range(10))}...")

    @pytest.mark.parametrize("as_array", [False, True])
    def test_rejects_duplicate_within_one_group(self, as_array):
        """One flat check finds a worker repeated inside a group too."""
        groups = [[0, 1], [2, 3, 2]]
        if as_array:
            groups = [np.array(g, dtype=np.int64) for g in groups]
        with pytest.raises(ValueError, match="duplicate workers in group"):
            GroupAsyncScheduler(groups)

    @pytest.mark.parametrize("groups", [
        [np.arange(0, 3), np.arange(3, 5)],  # ascending blocks: no sort
        [[3, 1], [0], np.array([4, 2])],
        [[0, 2, 4], [1, 3]],
        [[9], [7, 8]],
    ])
    def test_accepts_disjoint_groups_in_any_order(self, groups):
        sched = GroupAsyncScheduler(groups)
        assert all(sched.group_of(w) == g for g, members in enumerate(groups) for w in members)

    @pytest.mark.parametrize("groups", [
        [[0, 1], [1, 2]],
        [np.arange(0, 3), np.arange(2, 5)],
        [[3, 1], [1, 0]],
        [np.array([5, 2]), np.array([0, 7]), [2]],
    ])
    def test_rejects_overlap_in_any_order(self, groups):
        with pytest.raises(ValueError, match="multiple groups"):
            GroupAsyncScheduler(groups)

    def test_keeps_the_member_arrays_and_no_copy(self):
        members = [np.arange(0, 3), np.arange(3, 5)]
        state = vars(GroupAsyncScheduler(members)).values()
        arrays = [a for v in state for a in (v if isinstance(v, list) else [v])
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == 2 and all(a is m for a, m in zip(arrays, members))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one member"):
            GroupAsyncScheduler([[0, 1], []])

    def test_group_lookup(self):
        sched = GroupAsyncScheduler([[0, 1], [2]])
        assert sched.num_groups == 2
        assert sched.group_of(2) == 1
        assert sched.receive_group_ready(1) == 1
        assert sched.complete_aggregation(1).group_id == 1

    def test_unknown_worker_and_group(self):
        sched = GroupAsyncScheduler([[0]])
        with pytest.raises(KeyError):
            sched.group_of(5)
        for transition in (
            sched.receive_group_ready,
            sched.complete_aggregation,
            sched.abort_group,
        ):
            for group_id in (3, -1):
                with pytest.raises(KeyError, match="unknown group"):
                    transition(group_id)


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

    def test_base_version_recorded(self):
        sched = GroupAsyncScheduler([[0], [1]])
        sched.receive_ready(0); sched.complete_aggregation(0)
        sched.receive_ready(0); e = sched.complete_aggregation(0)
        assert e.base_version == 1


# ----------------------------------------------------------------------
# The scheduler against a dict-based reference model of Algorithm 1
# ----------------------------------------------------------------------
class ReferenceScheduler:
    """Algorithm 1's server bookkeeping in plain dicts, one entry per group."""

    def __init__(self, groups):
        self.members = {g: list(m) for g, m in enumerate(groups)}
        self.owner = {w: g for g, m in self.members.items() for w in m}
        self.count = {g: 0 for g in self.members}
        self.ready = {g: set() for g in self.members}
        self.held = {g: 0 for g in self.members}
        self.round, self.events = 0, []

    def receive_ready(self, worker):
        g = self.owner[worker]
        if worker in self.ready[g]:
            raise ValueError("READY twice")
        self.ready[g].add(worker)
        self.count[g] += 1
        return g if self.count[g] >= len(self.members[g]) else None

    def receive_group_ready(self, g):
        if self.count[g] != 0:
            raise RuntimeError("partial READY state")
        self.count[g] = len(self.members[g])
        return g

    def abort_group(self, g):
        if self.count[g] < len(self.members[g]):
            raise RuntimeError("not complete")
        self.count[g], self.ready[g] = 0, set()

    def complete_aggregation(self, g):
        self.abort_group(g)
        self.round += 1
        base = self.held[g]
        self.events.append((self.round, g, max(0, self.round - base - 1), base))
        self.held[g] = self.round
        return self.events[-1]

    def participation_counts(self):
        return [sum(e[1] == g for e in self.events) for g in self.members]


TRANSITIONS = ("receive_ready", "receive_group_ready", "complete_aggregation", "abort_group")
MAX_INDEX = 20
#: One transition, or a whole group round (group READY, then its commit) so
#: that most drawn sequences commit often enough for staleness to build up.
STEPS = st.one_of(
    st.tuples(st.sampled_from(TRANSITIONS), st.integers(0, MAX_INDEX)).map(lambda op: [op]),
    st.integers(0, MAX_INDEX).map(
        lambda g: [("receive_group_ready", g), ("complete_aggregation", g)]
    ),
)


def _event_row(event):
    return (event.round_index, event.group_id, event.staleness, event.base_version)


def replay(sizes, seed, ops):
    """Apply ``ops`` to both models; every outcome, error type and final state agree."""
    ids = np.random.default_rng(seed).permutation(sum(sizes)).tolist()
    groups = [ids[a - n:a] for n, a in zip(sizes, np.cumsum(sizes).tolist())]
    sched, ref = GroupAsyncScheduler(groups), ReferenceScheduler(groups)
    errors, events = set(), []
    for name, index in ops:
        # The largest index names an unknown worker / group.
        bound = len(ids) if name == "receive_ready" else len(sizes)
        arg = bound if index == MAX_INDEX else index % bound
        outcomes = []
        for model in (sched, ref):
            try:
                result = getattr(model, name)(arg)
            except (KeyError, ValueError, RuntimeError) as exc:
                outcomes.append(type(exc))
            else:
                if model is sched and name == "complete_aggregation":
                    result = _event_row(result)
                    events.append(result)
                outcomes.append(result)
        assert outcomes[0] == outcomes[1], (name, arg)
        if isinstance(outcomes[0], type):
            errors.add((name, outcomes[0]))
    assert sched.current_round == ref.round
    assert events == ref.events
    assert [sum(e[1] == g for e in events) for g in range(len(sizes))] == ref.participation_counts()
    return errors


ERROR_PATHS = {
    "double READY": ([2], [("receive_ready", 0), ("receive_ready", 0)], ValueError),
    "group READY over partial state": (
        [3], [("receive_ready", 1), ("receive_group_ready", 0)], RuntimeError),
    "complete before ready": (
        [2, 1], [("receive_ready", 0), ("complete_aggregation", 0)], RuntimeError),
    "abort before ready": ([1, 2], [("abort_group", 1)], RuntimeError),
}


@pytest.mark.parametrize("path", sorted(ERROR_PATHS))
def test_error_paths_match_the_reference_model(path):
    sizes, ops, error = ERROR_PATHS[path]
    assert replay(sizes, 0, ops) == {(ops[-1][0], error)}


@settings(max_examples=100)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
    steps=st.lists(STEPS, min_size=30, max_size=60),
)
def test_random_sequences_match_the_reference_model(sizes, seed, steps):
    """Transitions, staleness, per-group commit counts and events, on any sequence."""
    replay(sizes, seed, [op for step in steps for op in step])
