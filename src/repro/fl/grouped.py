"""The grouped schedule: groups commit asynchronously (Algorithm 1).

Both TiFL (OMA tiers) and Air-FedGA (AirComp groups) follow the same outer
schedule: groups train independently; whenever *all* members of a group have
finished local training, that group alone performs a global update and
immediately starts its next local round from the fresh global model.  The
only differences are (a) how the groups are formed — the
:meth:`GroupedAsyncTrainer.build_groups` hook — and (b) the uplink the
group's models travel over (reliable OMA vs. noisy over-the-air), mixed in
from :mod:`repro.fl.uplink`.

:meth:`GroupedAsyncTrainer.schedule` is the policy as a generator of commit
rows: it owns the virtual clock, the ready-time heap, the uplink occupancy
and the fault roster (quorum retry / skip / park), drives the
:class:`~repro.core.mechanism.GroupAsyncScheduler` protocol state machine,
and never reads the model.  :meth:`~repro.fl.base.BaseTrainer.run` trains
and commits each row, in event order, on the calling thread — aggregation,
power control and the channel-noise RNG included — while the batched
engine may split a large group's local training across the host's cores.
The produced :class:`~repro.fl.history.TrainingHistory` is therefore
bit-identical however many cores a group trains on (see
``docs/ARCHITECTURE.md``, "Determinism invariants", for exactly which
operations must stay in event order).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.grouping import GroupingProblem, GroupingResult
from ..core.mechanism import GroupAsyncScheduler
from .base import BaseTrainer, Cohort, CommitRow, FLExperiment
from .staleness import StalenessPolicy, resolve_staleness_policy

__all__ = ["GroupedAsyncTrainer"]


@dataclass
class _Roster:
    """The fault layer's record of one group dispatch.

    Captured when the group is (re-)enqueued: which members were available
    to start the local round, the round label the dispatch sampled its
    latency/fault draws with, and the per-group dispatch sequence number
    that makes every dispatch's RNG draws unique (retries and re-dispatches
    of the same round label draw fresh randomness).  ``members`` is an
    int64 array, the form both the fault draws and the commit path take.
    """

    members: np.ndarray
    round_label: int
    seq: int


class GroupedAsyncTrainer(BaseTrainer):
    """Base class for group-asynchronous mechanisms (TiFL, Air-FedGA).

    Parameters
    ----------
    experiment:
        The federated experiment definition.
    staleness:
        A staleness policy (an extension beyond the paper, following the
        asynchronous-FL literature the paper cites, e.g. Xie et al.) by
        registry name (``"constant"``, ``"hinge"``, ``"polynomial"``), as
        a ``{"name": ..., "params": {...}}`` mapping, or as a
        :class:`~repro.fl.staleness.StalenessPolicy` instance: a group
        whose update is based on a global model ``τ`` rounds old
        contributes with weight ``s(τ)`` — ``1 / (1 + τ)**exponent`` under
        ``polynomial``.  The default ``None`` reproduces the paper's
        Eq. (10) exactly.  The damping mix is the one staleness mix of
        :meth:`~repro.fl.base.BaseTrainer.run`, in event order — one of the
        determinism invariants (``docs/ARCHITECTURE.md``, "Determinism
        invariants").

    Device faults (``experiment.clientstate`` + ``experiment.fault``) are
    threaded through the schedule: availability is checked at group
    dispatch, mid-round dropouts are checked when the group's round
    completes, survivors below the quorum abort the round (with retry /
    skip / park escalation per :class:`~repro.core.FaultConfig`), and the
    surviving members' aggregation weights are renormalized so they carry
    the full group's data mass.  With no client-state model (or the
    ``always-on`` model) the schedule takes the exact legacy code path.
    """

    name = "grouped_async"

    def __init__(
        self,
        experiment: FLExperiment,
        staleness: Union[None, str, Mapping[str, Any], StalenessPolicy] = None,
    ) -> None:
        self._staleness_policy: Optional[StalenessPolicy] = resolve_staleness_policy(
            staleness
        )
        super().__init__(experiment)
        # Int64 member arrays, one per group: every per-round touchpoint
        # (latency sampling, worker-state counters, α masses, the commit
        # rows' participants) indexes with these.  A strategy's groups
        # already are; a hook returning lists is converted here, once.
        self.groups: List[np.ndarray] = [
            np.asarray(g, dtype=np.int64) for g in self.build_groups()
        ]
        if not self.groups:
            raise ValueError("grouping produced no groups")
        # The scheduler rejects empty groups and repeated workers; the
        # members are then distinct, so N of them from 0 to N − 1 cover
        # every worker.
        self.scheduler = GroupAsyncScheduler(self.groups)
        flat, n = np.concatenate(self.groups), experiment.num_workers
        if not (flat.size == n and flat.min() == 0 and flat.max() == n - 1):
            raise ValueError(
                "grouping must cover every worker exactly once; "
                f"got coverage {np.sort(flat)[:10].tolist()}..."
            )
        # ------------------------------------------------------------------
        # Fault-injection state (``self._clientstate`` + FaultConfig).
        # ------------------------------------------------------------------
        #: Last dispatch roster per group (only populated while faults are on).
        self._rosters: Dict[int, _Roster] = {}
        #: Per-group monotonic dispatch counter: every availability /
        #: survival / completion draw is keyed by it, so retries and
        #: re-dispatches of the same round label get fresh randomness while
        #: two runs of the same scenario replay identical trajectories.
        self._dispatch_seqs: List[int] = [0] * len(self.groups)
        #: Retries used for the group's current round attempt.
        self._retry_counts: List[int] = [0] * len(self.groups)
        #: Consecutive failed quorum checks (parking guard).
        self._consecutive_failures: List[int] = [0] * len(self.groups)

    # ------------------------------------------------------------------
    # Grouping: the hook the concrete mechanisms specialize
    # ------------------------------------------------------------------
    def build_groups(self) -> Sequence[Sequence[int]]:
        """Return the groups' worker ids (int64 arrays or int lists)."""
        raise NotImplementedError

    def grouping_problem(self, c_max: float = 0.0) -> GroupingProblem:
        """The grouping decision's inputs, read off this trainer's population.

        The worker-state table owns the float64 data sizes, so
        partition-less XL experiments group through the same code path;
        ``c_max`` is the power-control error term of the objective (0 for a
        reliable uplink).
        """
        return GroupingProblem(
            data_sizes=self.worker_state.sizes,
            class_counts=self.population.class_counts(),
            local_times=self.exp.latency.nominal,
            model_dimension=self.latency_dimension,
            config=self.exp.config,
            c_max=c_max,
        )

    def _adopt_grouping(self, result: GroupingResult) -> List[np.ndarray]:
        """Keep ``result`` for diagnostics; return its groups for the loop."""
        self.grouping_result = result
        return result.groups

    # ------------------------------------------------------------------
    def group_compute_time(self, group_id: int, round_index: int) -> float:
        """Local-training duration of a group: its slowest member."""
        return float(self.exp.latency.sample_times(self.groups[group_id], round_index).max())

    # ------------------------------------------------------------------
    # Fault-injection helpers (experiment.clientstate + experiment.fault)
    # ------------------------------------------------------------------
    def _quorum(self, group_id: int) -> int:
        """``max(1, ceil(quorum_fraction · group_size))`` for one group."""
        size = len(self.groups[group_id])
        return max(1, math.ceil(self.exp.fault.quorum_fraction * size))

    def _next_seq(self, group_id: int) -> int:
        seq = self._dispatch_seqs[group_id]
        self._dispatch_seqs[group_id] = seq + 1
        return seq

    def _register_quorum_failure(self, group_id: int) -> str:
        """Escalate one failed quorum check: ``"retry"``, ``"skip"`` or ``"park"``.

        Retries are budgeted per round attempt (``fault.max_retries``); a
        skip abandons the attempt and resets the retry budget; a group that
        fails ``fault.max_consecutive_failures`` checks in a row is parked
        (it leaves the schedule) so dead groups cannot spin forever.
        All three outcomes are counted on the history.
        """
        self._consecutive_failures[group_id] += 1
        if self._consecutive_failures[group_id] >= self.exp.fault.max_consecutive_failures:
            self.history.groups_parked += 1
            return "park"
        if self._retry_counts[group_id] < self.exp.fault.max_retries:
            self._retry_counts[group_id] += 1
            self.history.quorum_retries += 1
            return "retry"
        self._retry_counts[group_id] = 0
        self.history.quorum_skips += 1
        return "skip"

    def _dispatch_group(
        self,
        queue: List[Tuple[float, int]],
        group_id: int,
        start_time: float,
        round_label: int,
    ) -> bool:
        """(Re-)enqueue a group's next local round, applying availability faults.

        Without a client-state model this reduces exactly to the legacy
        ``heappush((start + compute_time, g))``.  With one, the model is
        polled for each member's availability; a roster at or above quorum
        is recorded and enqueued (its ready time gated by its slowest
        *available* member), while a below-quorum roster escalates through
        retry (re-poll ``retry_backoff`` seconds later), skip (idle one
        local-round window, then re-poll) or park (group leaves the schedule;
        returns ``False``).
        """
        if self._clientstate is None:
            self.worker_state.record_dispatch(self.groups[group_id])
            heapq.heappush(
                queue,
                (start_time + self.group_compute_time(group_id, round_label), group_id),
            )
            return True
        member_arr = self.groups[group_id]
        fault = self.exp.fault
        attempt_start = start_time
        while True:
            seq = self._next_seq(group_id)
            active_arr = self._poll_available(member_arr, round_label, seq)
            if len(active_arr) >= self._quorum(group_id):
                self._retry_counts[group_id] = 0
                self._consecutive_failures[group_id] = 0
                self._rosters[group_id] = _Roster(active_arr, round_label, seq)
                self.worker_state.record_dispatch(active_arr)
                ready = attempt_start + float(
                    self.exp.latency.sample_times(active_arr, round_label).max()
                )
                heapq.heappush(queue, (ready, group_id))
                return True
            action = self._register_quorum_failure(group_id)
            if action == "park":
                return False
            if action == "retry":
                attempt_start += fault.retry_backoff
                continue
            # Skip: the group idles one local-round window before re-polling.
            attempt_start += fault.retry_backoff + self.group_compute_time(
                group_id, round_label
            )

    def _surviving_roster(
        self, queue: List[Tuple[float, int]], group_id: int, ready_time: float
    ) -> Optional[Tuple[np.ndarray, float, Optional[np.ndarray]]]:
        """Roster stage under faults: who actually finished the local round.

        Polls the client-state model for mid-round dropouts among the
        members dispatched for this round.  At or above quorum, returns
        ``(survivors, weight_scale, completion_fractions)`` — the fractions
        ``None`` unless some survivor finished only part of its round
        (those are counted as partial updates).  Below
        quorum the round is aborted without a global update (it never
        happened for staleness accounting), the failure escalates, the
        group is re-dispatched unless parked, and ``None`` is returned.
        """
        cs = self._clientstate
        members = self.groups[group_id]
        roster = self._rosters[group_id]
        survive = np.asarray(
            cs.survival_mask(roster.members, roster.round_label, roster.seq),
            dtype=bool,
        )
        survivors = roster.members[survive]
        self.history.workers_dropped += len(roster.members) - len(survivors)
        self.worker_state.record_dropped(roster.members[~survive])
        if len(survivors) < self._quorum(group_id):
            self.scheduler.abort_group(group_id)
            if self._register_quorum_failure(group_id) != "park":
                self._dispatch_group(
                    queue,
                    group_id,
                    ready_time + self.exp.fault.retry_backoff,
                    self.scheduler.current_round + 1,
                )
            return None
        self._retry_counts[group_id] = 0
        self._consecutive_failures[group_id] = 0
        weight_scale = 1.0
        if self.exp.fault.renormalize_survivors and len(survivors) < len(members):
            # Survivors carry the full group's data mass:
            # Σα_members / Σα_survivors.
            sizes, total = self.data_sizes, self.total_data
            weight_scale = float(
                (sizes[members] / total).sum() / (sizes[survivors] / total).sum()
            )
        fractions = cs.completion_fractions(
            survivors, roster.round_label, roster.seq
        )
        partial = int(np.count_nonzero(fractions < 1.0))
        self.history.partial_updates += partial
        return survivors, weight_scale, fractions if partial else None

    # ------------------------------------------------------------------
    def schedule(
        self, max_rounds: int, max_time: Optional[float] = None
    ) -> Iterator[CommitRow]:
        """Algorithm 1's commits in event order, one row per global update."""
        cs = self._clientstate
        # Priority queue of (ready_time, group_id): the moment every member
        # of the group has finished local training and sent READY.
        if cs is None:
            # Full rosters: every group's first round from one pass over the
            # flat member array (same keyed latency draws; a heap of
            # distinct tuples pops in one order however filled).
            # analyze: allow-alloc(first dispatch only; dropped when it is queued)
            flat = np.concatenate(self.groups)
            starts = np.cumsum([0] + [g.size for g in self.groups[:-1]])
            self.worker_state.record_dispatch(flat)
            ready = np.maximum.reduceat(self.exp.latency.sample_times(flat, 1), starts)
            del flat  # the generator's frame would hold it for the whole run
            queue = list(zip(ready.tolist(), range(ready.size)))
            heapq.heapify(queue)
        else:
            queue = []  # availability is polled per roster
            for g in range(len(self.groups)):
                self._dispatch_group(queue, g, 0.0, 1)
        # Every dispatched group trains its first round from the initial model.
        self._hold(0, len(queue))
        # Uplink occupancy: aggregations (AirComp bursts or OMA uploads) from
        # different groups share the same band, so they are serialized at the
        # parameter server.  This is what makes very small groups (ξ → 0)
        # expensive in the paper's Fig. 8 — with many tiny groups the channel
        # itself becomes the bottleneck.
        channel_busy_until = 0.0

        while queue and self.scheduler.current_round < max_rounds:
            # -- pop ---------------------------------------------------
            ready_time, group_id = heapq.heappop(queue)
            if max_time is not None and ready_time > max_time:
                return
            # Protocol: every member's READY arrives at the same simulated
            # instant (one completion event per group), so the server
            # processes them as a single O(1) group-level transition
            # instead of |V_j| per-worker messages.  (Under faults, absent
            # members' READY messages are synthesized by the server so the
            # Alg.-1 counter still reaches |V_j| — the roster stage decides
            # who actually trained.)
            self.scheduler.receive_group_ready(group_id)

            # -- roster ------------------------------------------------
            participants = self.groups[group_id]
            weight_scale = 1.0
            fractions: Optional[np.ndarray] = None
            if cs is not None:
                survived = self._surviving_roster(queue, group_id, ready_time)
                if survived is None:
                    continue  # aborted below quorum; already re-dispatched
                participants, weight_scale, fractions = survived
            event = self.scheduler.complete_aggregation(group_id)
            t = event.round_index

            # -- upload ------------------------------------------------
            # The group can only start its aggregation once the shared
            # uplink is free; with many small groups this queueing delay
            # dominates.
            upload_start = max(ready_time, channel_busy_until)
            channel_busy_until = upload_start + self.upload_time(participants, t)

            # The survivors train from the global version the group last
            # received (Eq. 5); the round index seeds their batch sampling.
            yield CommitRow(
                t, channel_busy_until, group_id, event.staleness, participants,
                weight_scale, fractions, Cohort(participants, t, event.base_version),
            )
            # The group receives the fresh global model and immediately
            # starts its next local round.
            if self._dispatch_group(queue, group_id, channel_busy_until, t + 1):
                self._hold(t)
            if max_time is not None and channel_busy_until >= max_time:
                return
