"""The Air-FedGA protocol state machine (Algorithm 1).

This module implements the *mechanism* of the paper independently of any
particular model or dataset: the parameter-server bookkeeping for the
READY/EXECUTE handshake, intra-group alignment, asynchronous inter-group
global updates and staleness accounting.  The federated trainers in
:mod:`repro.fl` drive this state machine with simulated timing and plug in
the actual model updates and over-the-air aggregation.

Protocol recap (Alg. 1):

* The server keeps a counter ``r_j`` per group.  Each READY message from a
  worker of group ``j`` increments ``r_j``; when ``r_j == |V_j|`` the server
  sends EXECUTE to the whole group, resets ``r_j``, the group performs one
  over-the-air aggregation and the global round counter ``t`` advances.
* Workers outside the aggregating group keep their stale local models; the
  staleness of round ``t`` is ``τ_t = t − (version last received by the
  aggregating group) − 1``... in the paper's Fig. 2 convention, simply the
  number of global updates that happened since the group last received the
  global model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

import numpy as np

__all__ = ["AggregationEvent", "GroupAsyncScheduler"]


@dataclass
class AggregationEvent:
    """Record of one global update performed by a group."""

    round_index: int          # t, 1-based as in the paper
    group_id: int
    staleness: int            # τ_t
    base_version: int         # global model version the group trained from


class GroupAsyncScheduler:
    """Server-side state machine for grouping-asynchronous aggregation.

    The scheduler is agnostic to time: callers (the trainers or the
    discrete-event simulator) decide *when* READY messages arrive; the
    scheduler decides *what* happens — whether a group became complete,
    what the round index and staleness of the resulting aggregation are,
    and which global-model version each group currently holds.

    It keeps Algorithm 1's state and no more: per group the size, the READY
    count ``r_j`` and the held version in plain int lists, the round ``t``,
    and the member arrays it was given.  A group holds a set of READY
    workers only while :meth:`receive_ready` has it partway through a round.
    """

    def __init__(self, groups: Sequence[Sequence[int]]) -> None:
        if len(groups) == 0:
            raise ValueError("at least one group is required")
        self._members: List[Union[List[int], np.ndarray]] = [
            g if isinstance(g, np.ndarray) else list(g) for g in groups
        ]
        self._sizes: List[int] = [len(g) for g in self._members]
        if not all(self._sizes):
            raise ValueError("a group must have at least one member")
        # Membership checks on one transient flat copy (no per-worker Python
        # objects at 10k+ workers): sorted contiguous blocks are disjoint as
        # they lie; any other order is sorted in place, where a repeated
        # worker sits next to itself whether it repeats in one group or two.
        flat = np.concatenate(self._members, dtype=np.int64)
        if not np.all(flat[1:] > flat[:-1]):
            flat.sort()
            repeated = flat[1:][flat[1:] == flat[:-1]]
            if repeated.size:
                if any(np.unique(g).size < len(g) for g in self._members):
                    raise ValueError("duplicate workers in group")
                overlap = np.unique(repeated)[:10].tolist()
                raise ValueError(f"workers assigned to multiple groups: {overlap}...")
        self._ready: List[int] = [0] * len(groups)
        self._held: List[int] = [0] * len(groups)   # round the group last pulled
        self._ready_workers: Dict[int, Set[int]] = {}
        self._round: int = 0

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self._sizes)

    @property
    def current_round(self) -> int:
        """Number of global updates performed so far (``t`` in the paper)."""
        return self._round

    def group_of(self, worker_id: int) -> int:
        """The group holding ``worker_id``, by a scan of the member arrays.

        Only the per-worker READY path of :meth:`receive_ready` asks; the
        trainers send one READY per group.
        """
        for gid, members in enumerate(self._members):
            if worker_id in members:
                return gid
        raise KeyError(f"worker {worker_id} belongs to no group")

    def _check_complete(self, group_id: int, error: str) -> None:
        """Raise unless ``group_id`` exists and all its READYs are in."""
        if not 0 <= group_id < len(self._sizes):
            raise KeyError(f"unknown group {group_id}")
        if self._ready[group_id] < self._sizes[group_id]:
            raise RuntimeError(
                error.format(group_id)
                + f" ({self._ready[group_id]}/{self._sizes[group_id]} READY messages)"
            )

    def _reset_ready(self, group_id: int) -> None:
        self._ready[group_id] = 0
        if self._ready_workers:
            self._ready_workers.pop(group_id, None)

    # ------------------------------------------------------------------
    def receive_ready(self, worker_id: int) -> Optional[int]:
        """Process a READY message (Alg. 1 lines 17-29).

        Returns the group id if the group just became complete (the caller
        should then send EXECUTE and call :meth:`complete_aggregation`),
        otherwise ``None``.
        """
        gid = self.group_of(worker_id)
        ready = self._ready_workers.get(gid)
        if ready is None:
            ready = self._ready_workers[gid] = set()
        elif worker_id in ready:
            raise ValueError(
                f"worker {worker_id} sent READY twice in the same group round"
            )
        ready.add(worker_id)
        self._ready[gid] += 1
        if self._ready[gid] >= self._sizes[gid]:
            return gid
        return None

    def receive_group_ready(self, group_id: int) -> int:
        """Process the simultaneous READY of an entire group in O(1).

        The discrete-event loop pops one completion event per group, so
        every member's READY arrives at the same simulated instant; this
        single transition replaces ``size`` :meth:`receive_ready` calls
        (a per-member hotspot at 10k+ workers).  The group must have no
        straggling partial READY state — mixing the per-worker and
        group-level APIs within one group round is an error.
        """
        if not 0 <= group_id < len(self._sizes):
            raise KeyError(f"unknown group {group_id}")
        if self._ready[group_id] != 0:
            raise RuntimeError(
                f"group {group_id} already has {self._ready[group_id]} partial "
                "READY messages; group-level READY requires a clean round"
            )
        self._ready[group_id] = self._sizes[group_id]
        return group_id

    def complete_aggregation(self, group_id: int) -> AggregationEvent:
        """Finalize the global update triggered by ``group_id``.

        Advances the global round, computes the group's staleness
        ``τ_t = t − l_t − 1`` where ``l_t`` is the round at which the group
        last received the global model (0 before its first participation),
        resets the READY counter and records the group as now holding the
        new global model version.
        """
        self._check_complete(group_id, "group {} is not complete")
        self._round += 1
        t = self._round
        base_version = self._held[group_id]
        event = AggregationEvent(
            round_index=t,
            group_id=group_id,
            staleness=max(0, t - base_version - 1),
            base_version=base_version,
        )
        self._reset_ready(group_id)
        self._held[group_id] = t
        return event

    def abort_group(self, group_id: int) -> None:
        """Discard a completed group round without performing a global update.

        Used by the fault-injection layer when mid-round dropouts push a
        group below quorum: the READY state resets (the members will train
        again) but the global round counter does not advance and the
        group's held model version is unchanged — the aborted round never
        happened as far as staleness accounting is concerned.
        """
        self._check_complete(group_id, "cannot abort group {}: it is not complete")
        self._reset_ready(group_id)
