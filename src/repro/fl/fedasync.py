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
re-dispatched *together* from the same new global model as one
:class:`~repro.fl.base.Cohort` (the first cohort is the entire
population), which trains as one
:class:`~repro.nn.batched.BatchedWorkerEngine` call when its first member
commits.  ``buffer_size`` controls the cohort: the server lets that many
workers finish before the commit burst, trading a little update freshness
for larger batched cohorts (``1`` is pure FedAsync; larger values
approximate the semi-asynchronous buffered variants, cf. Kou et al. in
PAPERS.md).

Uploads are OMA (single-worker TDMA, timed by
:meth:`~repro.fl.uplink.OMAUplink.upload_time`) and serialize on the shared
uplink: each commit waits for the channel to free up, exactly like the
grouped schedule's uplink model.  :meth:`FedAsyncTrainer.schedule` owns the
per-worker completion heap, the bursts and the re-dispatch;
:meth:`FedAsyncTrainer.commit_update` hands the one staleness mix of
:meth:`~repro.fl.base.BaseTrainer.run` the worker's own model in place of
an uplink aggregate.  Every commit is one global round in the history
(``staleness`` records ``τ``); simulated time advances by local compute +
queued upload latency.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.config import require_count
from .base import Cohort, CommitRow, FLExperiment
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
        require_count("buffer_size", buffer_size)
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
                "use any other mechanism for fault scenarios"
            )
        self.mix_weight = float(mix_weight)
        self.buffer_size = int(buffer_size)

    # ------------------------------------------------------------------
    def commit_update(
        self, row: CommitRow, local_vectors: np.ndarray
    ) -> Tuple[np.ndarray, float, Dict[str, float]]:
        """The worker's own model, mixed in with ``a = mix_weight·s(τ)``."""
        weight = self.mix_weight * self._staleness_policy.weight(row.staleness)
        return local_vectors[0], weight, {}

    def schedule(
        self, max_rounds: int, max_time: Optional[float] = None
    ) -> Iterator[CommitRow]:
        """One commit row per worker update, in completion order."""
        #: Completion events ``(finish_time, dispatch, position, worker, cohort)``.
        heap: List[Tuple[float, int, int, int, Cohort]] = []
        clock = 0.0
        channel_busy_until = 0.0
        commits = 0  # == the current global-model version
        dispatches = 0  # the RNG round key of each cohort's local training
        # Initial dispatch: the entire population, from the initial model.
        workers = list(range(self.exp.num_workers))
        while commits < max_rounds:
            dispatches += 1
            cohort = Cohort(workers, dispatches, commits)
            self._hold(commits)
            times = self.exp.latency.sample_times(workers, dispatches)
            for k, w in enumerate(workers):
                # (dispatch, k) breaks finish-time ties in dispatch order.
                heapq.heappush(heap, (clock + float(times[k]), dispatches, k, w, cohort))
            self.worker_state.record_dispatch(workers)
            # Let buffer_size workers finish before the commit burst.
            burst = [heapq.heappop(heap) for _ in range(min(self.buffer_size, len(heap)))]
            workers = []
            for finish_time, _, k, w, trained_in in burst:
                tau = commits - trained_in.base_version
                commits += 1
                # Single-worker OMA upload, serialized on the shared uplink.
                upload_start = max(finish_time, channel_busy_until)
                channel_busy_until = upload_start + self.upload_time([w], commits)
                clock = max(clock, channel_busy_until)
                yield CommitRow(
                    commits, clock, -1, tau, [w], trained_in, slot=slice(k, k + 1)
                )
                # The burst's workers restart together from the new global
                # model — one batched engine call for the whole cohort.
                workers.append(w)
                if commits >= max_rounds or (
                    max_time is not None and clock >= max_time
                ):
                    return
