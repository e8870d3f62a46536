"""Air-FedGA: the paper's mechanism — grouped asynchronous over-the-air FL.

This trainer wires together the three contributions:

* **worker grouping** (Algorithm 3, :func:`repro.core.grouping.greedy_grouping`)
  — groups are formed so that members have similar local-training times
  (constraint 36d) while the inter-group label distributions are pushed
  toward IID (Corollary 1), minimizing the P4 objective;
* **power control** (Algorithm 2) — each over-the-air aggregation uses the
  σ_t/η_t pair minimizing the aggregation-error term C_t under the
  per-worker energy budgets (this happens inside
  :meth:`~repro.fl.base.BaseTrainer.aircomp_group_update`);
* **grouping-asynchronous updates** (Algorithm 1) — the event loop of
  :class:`~repro.fl.grouped.GroupedAsyncTrainer` driven by the
  READY/EXECUTE protocol state machine.

Because groups are independent between global commits, each group's
intra-group training round can be executed on a worker-process pool
(``AirFedGAConfig.parallelism``, see :mod:`repro.parallel`) without
changing any simulated quantity — the trainer produces bit-identical
float64 histories whether a round trains serially or sharded across
processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.grouping import (
    GroupingProblem,
    GroupingResult,
    contiguous_grouping,
    greedy_grouping,
    random_grouping,
    singleton_grouping,
    tier_grouping,
)
from ..core.power_control import solve_power_control
from .base import FLExperiment
from .grouped import GroupedAsyncTrainer

__all__ = ["AirFedGATrainer"]


class AirFedGATrainer(GroupedAsyncTrainer):
    """The Air-FedGA mechanism (Algorithm 1 + Algorithms 2 and 3)."""

    name = "air_fedga"

    def __init__(
        self,
        experiment: FLExperiment,
        grouping_strategy: str = "greedy",
        num_groups: Optional[int] = None,
        grouping_seed: int = 0,
        staleness: object = None,
    ) -> None:
        """
        Parameters
        ----------
        experiment:
            The federated experiment definition.
        grouping_strategy:
            ``"greedy"`` (the paper's Algorithm 3, default), ``"tier"``,
            ``"random"``, ``"singleton"`` or ``"contiguous"``.  The
            alternatives exist for the grouping ablation (E-A2 in
            DESIGN.md); ``"contiguous"`` is the O(N) strategy the XL-scale
            benchmarks use (index-contiguous int64 blocks, no per-worker
            Python objects).
        num_groups:
            Group count for the ``tier``/``random``/``contiguous``
            strategies (ignored by ``greedy``/``singleton``).
        grouping_seed:
            Seed for the ``random`` strategy.
        staleness:
            Optional staleness-aware damping of stale group updates: a
            policy by registry name, mapping or instance (see
            :mod:`repro.fl.staleness`).  ``None`` (the default) reproduces
            the paper's Eq. (10) exactly.
        """
        if grouping_strategy not in {
            "greedy",
            "tier",
            "random",
            "singleton",
            "contiguous",
        }:
            raise ValueError(f"unknown grouping strategy {grouping_strategy!r}")
        self.grouping_strategy = grouping_strategy
        self.num_groups_hint = num_groups
        self.grouping_seed = grouping_seed
        super().__init__(experiment, staleness=staleness)

    # ------------------------------------------------------------------
    def build_groups(self) -> List[List[int]]:
        exp = self.exp
        # Estimate the power-control error term once, on a representative
        # round, so the grouping objective accounts for the channel noise
        # floor (the paper determines σ*, η* before solving P4).
        gains = exp.channel.gains(0)
        # The population's worker-state table owns the float64 sizes
        # (value-identical to the legacy partition.data_sizes() +
        # np.maximum(·, 1e-9) pipeline), so partition-less XL experiments
        # group through the same code path.
        sizes = self.worker_state.sizes
        model_bound = max(float(np.linalg.norm(self.global_vector)), 1e-8)
        # Same per-entry noise calibration as the trainer's aggregation step
        # (the paper's σ₀² spread over the q model symbols).
        pc = solve_power_control(
            data_sizes=sizes,
            channel_gains=gains,
            model_bound=model_bound,
            config=self._pc_config,
        )
        problem = GroupingProblem(
            data_sizes=sizes,
            class_counts=self.population.class_counts(),
            local_times=exp.latency.nominal_times(),
            model_dimension=self.latency_dimension,
            config=exp.config,
            c_max=pc.error_term,
        )
        if self.grouping_strategy == "greedy":
            result = greedy_grouping(problem)
        elif self.grouping_strategy == "tier":
            result = tier_grouping(
                problem, num_groups=self.num_groups_hint or max(1, exp.num_workers // 10)
            )
        elif self.grouping_strategy == "random":
            result = random_grouping(
                problem,
                num_groups=self.num_groups_hint or max(1, exp.num_workers // 10),
                seed=self.grouping_seed,
            )
        elif self.grouping_strategy == "contiguous":
            result = contiguous_grouping(
                problem,
                num_groups=self.num_groups_hint or max(1, exp.num_workers // 10),
            )
        else:  # singleton
            result = singleton_grouping(problem)
        self.grouping_result: GroupingResult = result
        # Array-typed groups (the contiguous strategy) pass through uncopied;
        # legacy strategies keep returning plain int lists.
        return [
            g if isinstance(g, np.ndarray) else list(g) for g in result.groups
        ]

    # ------------------------------------------------------------------
    def aggregate_group(
        self,
        group_id: int,
        member_ids: Sequence[int],
        local_vectors: Sequence[np.ndarray],
        round_index: int,
        weight_scale: float = 1.0,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        # Writing into the trainer-owned update buffer keeps the AirComp
        # aggregation allocation-free (the event loop swaps it into place).
        return self.aircomp_group_update(
            member_ids,
            local_vectors,
            round_index,
            out=self._update_out,
            weight_scale=weight_scale,
        )

    def upload_time(self, member_ids: Sequence[int], round_index: int) -> float:
        # Over-the-air aggregation: the whole group transmits concurrently,
        # so the upload latency is L_u regardless of the group size (Eq. 33).
        return self.aircomp_upload_latency()
