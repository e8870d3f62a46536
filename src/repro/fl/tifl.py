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

from typing import List

from ..core.grouping import tier_grouping
from .base import FLExperiment, require_count
from .grouped import GroupedAsyncTrainer
from .uplink import OMAUplink

__all__ = ["TiFLTrainer"]


class TiFLTrainer(OMAUplink, GroupedAsyncTrainer):
    """Tier-based asynchronous FL with reliable OMA aggregation."""

    name = "tifl"

    def __init__(
        self,
        experiment: FLExperiment,
        num_tiers: int = 5,
        staleness: object = None,
    ) -> None:
        require_count("num_tiers", num_tiers)
        self.num_tiers = num_tiers
        super().__init__(experiment, staleness=staleness)

    # ------------------------------------------------------------------
    def build_groups(self) -> List[List[int]]:
        return self._adopt_grouping(
            tier_grouping(self.grouping_problem(), num_groups=self.num_tiers)
        )
