"""FedDyn: dynamic regularization with per-worker drift state.

Acar et al., ICLR 2021 ("Federated Learning Based on Dynamic
Regularization").  Each worker carries a persistent drift vector ``h_i``
(initialized to zero) and locally minimizes

    ``f_i(w) − <h_i, w> + (λ/2)·||w − w_t||²``

whose SGD step is the affine update

    ``w ← (1 − lr·λ)·w − lr·∇f_i(w) + lr·(λ·w_t + h_i)``

— a :class:`~repro.nn.batched.StepTransform` with per-worker ``(G, q)``
offset rows, so the drift correction runs group-parallel on the batched
engine.  After local training the drift integrates the worker's progress,
``h_i ← h_i − λ·(w_i − w_t)`` (at a local optimum ``h_i → ∇f_i(w_i)``),
and the server subtracts the population drift average from the aggregate:

    ``w_{t+1} = Σ α_i·w_i − (1/λ)·Σ_j α_j·h_j``

At a consensus fixed point the correction term is the α-weighted mean
local gradient, which vanishes exactly at the global optimum — the
client-drift cancellation that lets FedDyn match centralized performance
under heterogeneous data.  This port weights both averages by the repo's
data weights ``α_i`` (the reference implementation's uniform ``1/m`` is
the equal-shard special case).

The drift vectors live in the
:class:`~repro.core.population.WorkerStateTable` as one ``(N, q)``
struct-of-arrays field (``"feddyn_drift"``): absent workers' rows survive
dropout/rejoin faults untouched, and fault trajectories replay exactly
under the keyed RNG streams.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn.batched import StepTransform
from .base import FLExperiment
from .fedavg import FedAvgTrainer

__all__ = ["FedDynTrainer"]

#: WorkerStateTable field holding the per-worker drift vectors ``h_i``.
DRIFT_FIELD = "feddyn_drift"


class FedDynTrainer(FedAvgTrainer):
    """Synchronous FedAvg schedule with dynamic regularization."""

    name = "feddyn"

    def __init__(self, experiment: FLExperiment, alpha_coef: float = 0.01) -> None:
        if alpha_coef <= 0:
            raise ValueError(
                f"alpha_coef (the λ regularizer) must be > 0, got {alpha_coef}"
            )
        lr_lam = float(experiment.learning_rate) * float(alpha_coef)
        if lr_lam >= 1.0:
            raise ValueError(
                f"lr·alpha_coef = {lr_lam} >= 1: the regularized step would "
                "overshoot the base model (reduce alpha_coef or the learning "
                "rate)"
            )
        super().__init__(experiment)
        self.alpha_coef = float(alpha_coef)
        #: (N, q) drift state h_i, zero-initialized, persistent across
        #: rounds and across dropout/rejoin fault trajectories.
        self.drift = self.register_worker_state(
            DRIFT_FIELD, width=self.model.dimension
        )
        # A new trainer means fresh optimizer state even when the
        # experiment's population (and hence the registered field) is
        # shared with an earlier trainer.
        self.drift.fill(0.0)

    # -- local objective -------------------------------------------------
    def local_step_transform(
        self,
        worker_ids: Sequence[int],
        base_vector: np.ndarray,
        round_index: int,
    ) -> Optional[StepTransform]:
        lam = self.alpha_coef
        lr = self.exp.learning_rate
        # One (G, q) offset per dispatch: the λ·w_t pull is shared, the
        # h_i rows are per-worker.
        offset = self.drift[list(worker_ids)]
        offset = lr * (lam * base_vector + offset)
        return StepTransform(scale=1.0 - lr * lam, offset=offset)

    # -- drift bookkeeping ------------------------------------------------
    def post_local_update(
        self,
        participants: List[int],
        local_vectors: np.ndarray,
        base_vector: np.ndarray,
        round_index: int,
    ) -> None:
        # h_i ← h_i − λ·(w_i − w_t) for the round's participants only;
        # absent workers keep their drift (dropout-rejoin durability).
        delta = np.asarray(local_vectors) - base_vector
        self.drift[participants] -= self.alpha_coef * delta

    def post_aggregate(
        self, new_global: np.ndarray, participants: List[int], round_index: int
    ) -> np.ndarray:
        # w ← w − (1/λ)·Σ_j α_j·h_j over the whole population (α sums to 1).
        np.dot(
            (self.data_sizes / self.total_data).astype(self.drift.dtype, copy=False),
            self.drift,
            out=self._agg_scratch,
        )
        self._agg_scratch /= self.alpha_coef
        new_global -= self._agg_scratch
        return new_global
