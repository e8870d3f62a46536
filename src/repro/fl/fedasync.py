"""FedAsync: per-update staleness-weighted asynchronous aggregation.

Xie et al. 2019 ("Asynchronous Federated Optimization"), the asynchronous
baseline the paper's related-work compares against (and the FLGo reference
implementation in SNIPPETS.md §2).  Every worker trains continuously: it
pulls the current global model, runs its local SGD, uploads, and the
server *immediately* mixes the update in —

    ``w ← (1 − a_τ)·w + a_τ·w_k``  with  ``a_τ = mix_weight · s(τ)``

where ``τ`` is the update's staleness (how many commits the global model
advanced since the worker pulled it) and ``s(τ)`` a damping schedule from
the registered ``staleness`` policy kind (``constant`` / ``polynomial`` /
``hinge`` — FedAsync's own schedules, shared with the grouped trainer).
There is no straggler barrier: fast workers commit often, slow workers'
updates arrive stale and are shrunk accordingly.

Group-parallel execution: workers whose updates commit back-to-back are
re-dispatched *together* from the same new global model, so their local
training runs as one :class:`~repro.nn.batched.BatchedWorkerEngine` call
(the initial dispatch batches the entire population).  ``buffer_size``
controls the cohort: the server lets that many workers finish before the
commit burst, trading a little update freshness for larger batched
cohorts (``1`` is pure FedAsync; larger values approximate the
semi-asynchronous buffered variants, cf. Kou et al. in PAPERS.md).

Uploads are OMA (single-worker TDMA, timed by
:meth:`~repro.fl.uplink.OMAUplink.upload_time`) and serialize on the shared
uplink: each commit waits for the channel to free up, exactly like the
grouped event loop's uplink model; the per-update mix below stands in for
the uplink's group aggregation.  Every commit is one global round in the
history (``staleness`` records ``τ``); simulated time advances by local
compute + queued upload latency.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .base import FLExperiment
from .history import TrainingHistory
from .staleness import (
    PolynomialStaleness,
    StalenessPolicy,
    resolve_staleness_policy,
)
from .uplink import OMAUplink

__all__ = ["FedAsyncTrainer"]


class FedAsyncTrainer(OMAUplink):
    """Asynchronous per-update FL with staleness-damped mixing."""

    name = "fedasync"

    def __init__(
        self,
        experiment: FLExperiment,
        mix_weight: float = 0.6,
        staleness: Union[None, str, Mapping[str, Any], StalenessPolicy] = None,
        buffer_size: int = 1,
    ) -> None:
        if not 0.0 < mix_weight <= 1.0:
            raise ValueError(
                f"mix_weight must be in (0, 1], got {mix_weight}"
            )
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        # Accepts the same staleness argument as the grouped trainer; the
        # FedAsync default is the paper's polynomial schedule s(τ) =
        # 1/(1+τ)^0.5 (pass staleness="constant" to disable damping).
        policy = resolve_staleness_policy(staleness)
        self._staleness_policy: StalenessPolicy = (
            policy if policy is not None else PolynomialStaleness(exponent=0.5)
        )
        super().__init__(experiment)
        if self._clientstate is not None:
            raise ValueError(
                "fedasync does not support client-state fault models yet; "
                "use a synchronous or grouped mechanism for fault scenarios"
            )
        self.mix_weight = float(mix_weight)
        self.buffer_size = int(buffer_size)
        #: Monotonic dispatch counter — the RNG round key for local
        #: training, so every (worker, dispatch) draws fresh mini-batches.
        self._dispatch_counter = 0
        #: Completion events ``(finish_time, dispatch, position, worker)``.
        self._heap: List[Tuple[float, int, int, int]] = []
        #: Per in-flight worker: its trained model row and the global-model
        #: version it was trained from.
        self._pending: Dict[int, Tuple[np.ndarray, int]] = {}

    # ------------------------------------------------------------------
    def _dispatch_cohort(
        self, workers: List[int], start_time: float, version: int
    ) -> None:
        """Train a cohort from the current global model; queue completions.

        One batched group call covers the whole cohort (the proximal point
        of running FedAsync on the batched engine); each member's finish
        time is its own sampled compute latency.
        """
        self._dispatch_counter += 1
        dispatch_round = self._dispatch_counter
        stack = self.local_update_group(
            workers, self.global_vector, dispatch_round
        )
        times = self.exp.latency.sample_times(workers, dispatch_round)
        for k, w in enumerate(workers):
            self._pending[w] = (np.array(stack[k], copy=True), version)
            # (dispatch_round, k) breaks finish-time ties in dispatch order.
            heapq.heappush(
                self._heap, (start_time + float(times[k]), dispatch_round, k, w)
            )
        self._release_stack(stack)
        self.worker_state.record_dispatch(np.asarray(workers, dtype=np.int64))

    # ------------------------------------------------------------------
    def run(
        self, max_rounds: int = 100, max_time: Optional[float] = None
    ) -> TrainingHistory:
        self._begin_run(max_rounds, max_time)
        if max_rounds == 0:
            return self.history  # before the whole population trains once
        policy = self._staleness_policy
        clock = 0.0
        channel_busy_until = 0.0
        commits = 0  # == the current global-model version
        # Initial dispatch: the entire population trains as one batched
        # cohort from the same initial model.
        self._dispatch_cohort(list(range(self.exp.num_workers)), 0.0, commits)
        ready: List[Tuple[float, int]] = []
        stop = False
        while self._heap and not stop:
            finish_time, _, _, worker = heapq.heappop(self._heap)
            ready.append((finish_time, worker))
            # Let buffer_size workers finish before the commit burst (the
            # final stragglers flush even if the buffer never fills).
            if len(ready) < self.buffer_size and self._heap:
                continue
            cohort: List[int] = []
            for local_finish, w in ready:
                vec, pulled_version = self._pending.pop(w)
                tau = commits - pulled_version
                commits += 1
                weight = self.mix_weight * policy.weight(tau)
                # Single-worker OMA upload, serialized on the shared uplink.
                upload_start = max(local_finish, channel_busy_until)
                channel_busy_until = upload_start + self.upload_time([w], commits)
                clock = max(clock, channel_busy_until)
                # w ← (1 − a)·w + a·w_k  (allocation-free, buffer swap).
                np.multiply(
                    self.global_vector, 1.0 - weight, out=self._agg_scratch
                )
                np.multiply(vec, weight, out=self._update_out)
                self._update_out += self._agg_scratch
                self._commit_global(self._update_out)
                self.worker_state.record_commit(
                    np.array([w], dtype=np.int64), tau
                )
                cohort.append(w)
                self.record_round(
                    round_index=commits,
                    time=clock,
                    staleness=tau,
                    group_id=-1,
                    num_participants=1,
                )
                if commits >= max_rounds or (
                    max_time is not None and clock >= max_time
                ):
                    stop = True
                    break
            ready = []
            if not stop and cohort:
                # The burst's workers restart together from the new global
                # model — one batched engine call for the whole cohort.
                self._dispatch_cohort(cohort, clock, commits)
        return self.history
