"""TiFL baseline: tier-based group-asynchronous FL over OMA uploads.

Reference [26] of the paper (Chai et al., HPDC 2020): workers are binned
into tiers by their (communication + computation) time, and tiers update
the global model asynchronously.  Unlike Air-FedGA, the tiers (a) upload
their models over orthogonal resources, so the upload phase grows with the
tier size, and (b) are formed without looking at the data distribution, so
under label-skew the tier-level label distributions stay far from IID
(the TiFL column of Table III).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.grouping import GroupingProblem, tier_grouping
from .base import FLExperiment
from .grouped import GroupedAsyncTrainer

__all__ = ["TiFLTrainer"]


class TiFLTrainer(GroupedAsyncTrainer):
    """Tier-based asynchronous FL with reliable OMA aggregation."""

    name = "tifl"

    def __init__(
        self,
        experiment: FLExperiment,
        num_tiers: int = 5,
        staleness: object = None,
    ) -> None:
        if num_tiers < 1:
            raise ValueError("num_tiers must be >= 1")
        self.num_tiers = num_tiers
        super().__init__(experiment, staleness=staleness)

    # ------------------------------------------------------------------
    def build_groups(self) -> List[List[int]]:
        exp = self.exp
        problem = GroupingProblem(
            data_sizes=self.worker_state.raw_sizes,
            class_counts=self.population.class_counts(),
            local_times=exp.latency.nominal_times(),
            model_dimension=self.latency_dimension,
            config=exp.config,
        )
        result = tier_grouping(problem, num_groups=self.num_tiers)
        self.grouping_result = result
        return [list(g) for g in result.groups]

    # ------------------------------------------------------------------
    def aggregate_group(
        self,
        group_id: int,
        member_ids: Sequence[int],
        local_vectors: Sequence[np.ndarray],
        round_index: int,
        weight_scale: float = 1.0,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        # OMA uploads are assumed reliable: the server receives each model
        # exactly and applies Eq. (8).  Writing into the trainer-owned
        # update buffer keeps the aggregation allocation-free.
        new_global = self.exact_group_update(
            member_ids, local_vectors, out=self._update_out, weight_scale=weight_scale
        )
        return new_global, {}

    def upload_time(self, member_ids: Sequence[int], round_index: int) -> float:
        # Tier members upload sequentially over the shared band (TDMA).
        return self.oma_upload_latency(member_ids, round_index)
