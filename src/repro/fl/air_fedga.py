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
* **grouping-asynchronous updates** (Algorithm 1) — the schedule of
  :class:`~repro.fl.grouped.GroupedAsyncTrainer` driven by the
  READY/EXECUTE protocol state machine.

Within a group every member's local SGD is independent, so the batched
engine may split a large group across the host's cores without changing
any simulated quantity — the history is bit-identical either way.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.grouping import GROUPING_STRATEGIES
from ..core.power_control import solve_power_control
from .base import FLExperiment, require_count
from .grouped import GroupedAsyncTrainer
from .uplink import AirCompUplink

__all__ = ["AirFedGATrainer"]


class AirFedGATrainer(AirCompUplink, GroupedAsyncTrainer):
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
            alternatives exist for the grouping ablation
            (``benchmarks/test_ablation_grouping.py``); ``"contiguous"`` is
            the O(N) strategy the XL-scale benchmarks use (index-contiguous
            int64 blocks, no per-worker Python objects).
        num_groups:
            Group count for the ``tier``/``random``/``contiguous``
            strategies (ignored by ``greedy``/``singleton``): an integer
            >= 1, or ``None`` for one group per ten workers.
        grouping_seed:
            Seed for the ``random`` strategy.
        staleness:
            Optional staleness-aware damping of stale group updates: a
            policy by registry name, mapping or instance (see
            :mod:`repro.fl.staleness`).  ``None`` (the default) reproduces
            the paper's Eq. (10) exactly.
        """
        if grouping_strategy not in GROUPING_STRATEGIES:
            raise ValueError(f"unknown grouping strategy {grouping_strategy!r}")
        require_count("num_groups", num_groups, optional=True)
        if num_groups is None:
            num_groups = max(1, experiment.num_workers // 10)
        self.grouping_strategy = grouping_strategy
        self.num_groups_hint = num_groups
        self.grouping_seed = grouping_seed
        super().__init__(experiment, staleness=staleness)

    # ------------------------------------------------------------------
    def build_groups(self) -> List[List[int]]:
        # Estimate the power-control error term once, on a representative
        # round, so the grouping objective accounts for the channel noise
        # floor (the paper determines σ*, η* before solving P4) — with the
        # same per-entry noise calibration as the aggregation step (the
        # paper's σ₀² spread over the q model symbols).
        pc = solve_power_control(
            data_sizes=self.worker_state.sizes,
            channel_gains=self.exp.channel.gains(0),
            model_bound=max(float(np.linalg.norm(self.global_vector)), 1e-8),
            config=self._pc_config,
        )
        strategy = GROUPING_STRATEGIES[self.grouping_strategy]
        return self._adopt_grouping(
            strategy(
                self.grouping_problem(c_max=pc.error_term),
                self.num_groups_hint,
                self.grouping_seed,
            )
        )
