"""Shared event-driven loop for grouping-asynchronous mechanisms.

Both TiFL (OMA tiers) and Air-FedGA (AirComp groups) follow the same outer
schedule: groups train independently; whenever *all* members of a group have
finished local training, that group alone performs a global update and
immediately starts its next local round from the fresh global model.  The
only differences are (a) how the groups are formed — the
:meth:`GroupedAsyncTrainer.build_groups` hook — and (b) the uplink the
group's models travel over (reliable OMA vs. noisy over-the-air), mixed in
from :mod:`repro.fl.uplink`.  This module implements the common schedule as
a virtual-time event loop on top of the
:class:`~repro.core.mechanism.GroupAsyncScheduler` protocol state machine.

How a group's local-training phase executes is orthogonal to the
schedule: on the batched engine, which splits a large group across the
host's cores on threads of its own (the per-worker loop for a model with a
kernel-less layer).

The virtual-time event loop itself is single-threaded and strictly
ordered, like Algorithm 1: one group at a time goes READY → EXECUTE →
aggregate, and aggregation, power control and the channel-noise RNG
always run on the calling thread, in event order.  The produced
:class:`~repro.fl.history.TrainingHistory` is therefore bit-identical
however many cores a group trains on (see ``docs/ARCHITECTURE.md``,
"Determinism invariants", for exactly which operations must stay in event
order).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.grouping import GroupingProblem, GroupingResult
from ..core.mechanism import GroupAsyncScheduler, flatten_groups
from .base import BaseTrainer, FLExperiment
from .history import TrainingHistory
from .staleness import StalenessPolicy, resolve_staleness_policy

__all__ = ["GroupedAsyncTrainer"]


@dataclass
class _Roster:
    """The fault layer's record of one group dispatch.

    Captured when the group is (re-)enqueued: which members were available
    to start the local round, the round label the dispatch sampled its
    latency/fault draws with, and the per-group dispatch sequence number
    that makes every dispatch's RNG draws unique (retries and re-dispatches
    of the same round label draw fresh randomness).  ``member_array`` is
    the same roster as an int64 array, captured once at dispatch so the
    commit path never re-converts the member list.
    """

    members: List[int]
    round_label: int
    seq: int
    member_array: np.ndarray


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
        Eq. (10) exactly.  The damping mix happens in the parent process
        in event order — one of the determinism invariants
        (``docs/ARCHITECTURE.md``, "Determinism invariants") — so it
        composes with multiprocess execution.

    Device faults (``experiment.clientstate`` + ``experiment.fault``) are
    threaded through the event loop: availability is checked at group
    dispatch, mid-round dropouts are checked when the group's round
    completes, survivors below the quorum abort the round (with retry /
    skip / park escalation per :class:`~repro.core.FaultConfig`), and the
    surviving members' aggregation weights are renormalized so they carry
    the full group's data mass.  With no client-state model (or the
    ``always-on`` model) the loop takes the exact legacy code path.
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
        self.groups: List[List[int]] = self.build_groups()
        if not self.groups:
            raise ValueError("grouping produced no groups")
        # Int64 member arrays, cached once per group: every per-round
        # touchpoint (latency sampling, worker-state counters, alpha
        # masses) indexes with these instead of Python int lists.
        self._group_arrays: List[np.ndarray] = [
            np.asarray(g, dtype=np.int64) for g in self.groups
        ]
        # All members back to back + each group's first index, flattened
        # once for the coverage check and the first dispatch.
        self._segments = flatten_groups(self._group_arrays)
        flat = self._segments[0]
        n = experiment.num_workers
        valid = flat.size == n
        if valid:
            valid = bool(
                flat.min() >= 0
                and flat.max() < n
                and np.all(np.bincount(flat, minlength=n) == 1)
            )
        if not valid:
            raise ValueError(
                "grouping must cover every worker exactly once; "
                f"got coverage {np.sort(flat)[:10].tolist()}..."
            )
        self.scheduler = GroupAsyncScheduler(self.groups)
        # The global-model version each group last received, as a vector.
        # All groups that have not committed yet share one snapshot of the
        # initial model; a group gets a private base on its first commit —
        # O(groups that trained) instead of O(num_groups) memory.
        self._initial_base: np.ndarray = self.global_vector.copy()
        self._group_base: Dict[int, np.ndarray] = {}
        # Uplink occupancy: aggregations (AirComp bursts or OMA uploads) from
        # different groups share the same band, so they are serialized at the
        # parameter server.  This is what makes very small groups (ξ → 0)
        # expensive in the paper's Fig. 8 — with many tiny groups the channel
        # itself becomes the bottleneck.
        self._channel_busy_until: float = 0.0
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
    def build_groups(self) -> List[List[int]]:
        """Return the list of worker-id lists forming the groups."""
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
            local_times=self.exp.latency.nominal_times(),
            model_dimension=self.latency_dimension,
            config=self.exp.config,
            c_max=c_max,
        )

    def _adopt_grouping(self, result: GroupingResult) -> List[List[int]]:
        """Keep ``result`` for diagnostics; return its groups for the loop.

        Array-typed groups (the contiguous strategy) pass through uncopied;
        the other strategies' groups become plain int lists.
        """
        self.grouping_result = result
        return [g if isinstance(g, np.ndarray) else list(g) for g in result.groups]

    # ------------------------------------------------------------------
    def _base_of(self, group_id: int) -> np.ndarray:
        """The global-model vector this group last received (Eq. 5 base)."""
        base = self._group_base.get(group_id)
        return base if base is not None else self._initial_base

    def _commit_base(self, group_id: int) -> None:
        """Record that the group now holds the fresh global model."""
        base = self._group_base.get(group_id)
        if base is None:
            # First commit of this group: promote it from the shared
            # initial snapshot to a private base vector.
            # analyze: allow-alloc(one-time promotion from the shared initial base)
            self._group_base[group_id] = self.global_vector.copy()
        else:
            np.copyto(base, self.global_vector)

    # ------------------------------------------------------------------
    def group_compute_time(self, group_id: int, round_index: int) -> float:
        """Local-training duration of a group: its slowest member."""
        members = self._group_arrays[group_id]
        return float(self.exp.latency.sample_times(members, round_index).max())

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
        (removed from the event loop) so dead groups cannot spin forever.
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
        local-round window, then re-poll) or park (group leaves the loop;
        returns ``False``).
        """
        if self._clientstate is None:
            self.worker_state.record_dispatch(self._group_arrays[group_id])
            heapq.heappush(
                queue,
                (start_time + self.group_compute_time(group_id, round_label), group_id),
            )
            return True
        member_arr = self._group_arrays[group_id]
        fault = self.exp.fault
        attempt_start = start_time
        while True:
            seq = self._next_seq(group_id)
            active_arr = self._poll_available(member_arr, round_label, seq)
            active = active_arr.tolist()
            if len(active) >= self._quorum(group_id):
                self._retry_counts[group_id] = 0
                self._consecutive_failures[group_id] = 0
                self._rosters[group_id] = _Roster(
                    active, round_label, seq, active_arr
                )
                self.worker_state.record_dispatch(active_arr)
                ready = attempt_start + float(
                    self.exp.latency.sample_times(active, round_label).max()
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

    def _dispatch_all(self) -> List[Tuple[float, int]]:
        """The heap of every group's first local round, all starting at t = 0."""
        if self._clientstate is not None:  # availability is polled per roster
            queue: List[Tuple[float, int]] = []
            for g in range(len(self.groups)):
                self._dispatch_group(queue, g, 0.0, 1)
            return queue
        # Full rosters: one pass over the flat member array (same keyed latency
        # draws; a heap of distinct tuples pops in one order however filled).
        flat, starts = self._segments
        self.worker_state.record_dispatch(flat)
        ready = np.maximum.reduceat(self.exp.latency.sample_times(flat, 1), starts)
        queue = list(zip(ready.tolist(), range(ready.size)))
        heapq.heapify(queue)
        return queue

    def _surviving_roster(
        self, queue: List[Tuple[float, int]], group_id: int, ready_time: float
    ) -> Optional[Tuple[List[int], float, np.ndarray]]:
        """Roster stage under faults: who actually finished the local round.

        Polls the client-state model for mid-round dropouts among the
        members dispatched for this round.  At or above quorum, returns
        ``(survivors, weight_scale, completion_fractions)``.  Below
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
        roster_arr = roster.member_array
        survivors = roster_arr[survive].tolist()
        self.history.workers_dropped += len(roster.members) - len(survivors)
        self.worker_state.record_dropped(roster_arr[~survive])
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
            weight_scale = float(
                self.alphas[members].sum() / self.alphas[survivors].sum()
            )
        fractions = cs.completion_fractions(
            survivors, roster.round_label, roster.seq
        )
        return survivors, weight_scale, fractions

    def _blend_partial_work(
        self, local_vectors: np.ndarray, base: np.ndarray, fractions: np.ndarray
    ) -> np.ndarray:
        """Blend stage: ``w ← base + f · (w − base)`` for partial local work.

        A worker with completion fraction ``f < 1`` only finished that
        share of its local round.  Works on a copy — the stack is a
        reused pool buffer — and recycles the raw stack, which the copy
        replaces.
        """
        self.history.partial_updates += int(np.count_nonzero(fractions < 1.0))
        # analyze: allow-alloc(blend must not mutate the recycled stack)
        stacked = np.asarray(local_vectors).copy()
        stacked -= base
        stacked *= fractions.astype(stacked.dtype)[:, None]
        stacked += base
        self._release_stack(local_vectors)
        return stacked

    # ------------------------------------------------------------------
    def run(
        self, max_rounds: int = 100, max_time: Optional[float] = None
    ) -> TrainingHistory:
        self._begin_run(max_rounds, max_time)
        cs = self._clientstate
        # Priority queue of (ready_time, group_id): the moment every member
        # of the group has finished local training and sent READY.
        queue = self._dispatch_all()

        while queue and self.scheduler.current_round < max_rounds:
            # -- pop ---------------------------------------------------
            ready_time, group_id = heapq.heappop(queue)
            if max_time is not None and ready_time > max_time:
                break
            members = self.groups[group_id]
            # Protocol: every member's READY arrives at the same simulated
            # instant (one completion event per group), so the server
            # processes them as a single O(1) group-level transition
            # instead of |V_j| per-worker messages.  (Under faults, absent
            # members' READY messages are synthesized by the server so the
            # Alg.-1 counter still reaches |V_j| — the roster stage decides
            # who actually trained.)
            self.scheduler.receive_group_ready(group_id)

            # -- roster ------------------------------------------------
            participants = members
            weight_scale = 1.0
            fractions: Optional[np.ndarray] = None
            if cs is not None:
                survived = self._surviving_roster(queue, group_id, ready_time)
                if survived is None:
                    continue  # aborted below quorum; already re-dispatched
                participants, weight_scale, fractions = survived
            event = self.scheduler.complete_aggregation(group_id)
            t = event.round_index

            # -- train -------------------------------------------------
            # Local updates are computed from the global version this
            # group last received (Eq. 5); the round index seeds the batch
            # sampling.  The whole group trains as one batched tensor pass
            # when the model supports it (scalar per-worker fallback
            # otherwise).
            base = self._base_of(group_id)
            local_vectors = self.local_update_group(participants, base, t)

            # -- blend -------------------------------------------------
            if fractions is not None and np.any(fractions < 1.0):
                local_vectors = self._blend_partial_work(
                    local_vectors, base, fractions
                )

            # -- upload ------------------------------------------------
            # The group can only start its aggregation once the shared
            # uplink is free; with many small groups this queueing delay
            # dominates.
            upload_start = max(ready_time, self._channel_busy_until)
            update_time = upload_start + self.upload_time(participants, t)
            self._channel_busy_until = update_time

            # -- aggregate ---------------------------------------------
            new_global, info = self.aggregate(
                participants, local_vectors, t, weight_scale
            )
            if self._staleness_policy is not None and event.staleness > 0:
                # Staleness-aware damping (extension, off by default):
                # shrink the contribution of updates computed from old
                # global models by the policy's s(τ).
                weight = self._staleness_policy.weight(event.staleness)
                if weight < 1.0:
                    new_global = (
                        1.0 - weight
                    ) * self.global_vector + weight * new_global

            # -- commit ------------------------------------------------
            # Swap (not copy) the trainer-owned update buffer into place.
            self._commit_global(new_global)
            # The aggregation has consumed the group stack: return it to
            # the population pool (no-op for arrays the pool does not own).
            self._release_stack(local_vectors)
            # The group receives the fresh global model and immediately
            # starts its next local round.
            self._commit_base(group_id)
            if participants is members:
                commit_ids = self._group_arrays[group_id]
            else:
                commit_ids = np.asarray(participants, dtype=np.int64)
            self.worker_state.record_commit(commit_ids, event.staleness)
            self._dispatch_group(queue, group_id, update_time, t + 1)

            # -- record ------------------------------------------------
            self.record_round(
                round_index=t,
                time=update_time,
                staleness=event.staleness,
                group_id=group_id,
                num_participants=len(participants),
                round_energy=info.get("round_energy_j", 0.0),
                sigma=info.get("sigma", math.nan),
                eta=info.get("eta", math.nan),
            )
            if max_time is not None and update_time >= max_time:
                break
        return self.history
