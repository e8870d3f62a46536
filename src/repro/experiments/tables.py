"""Per-table experiment drivers (Tables I and III of the paper)."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.grouping import greedy_grouping, singleton_grouping, tier_grouping
from .figures import grouping_problem
from .runner import run_comparison
from .scenario import Scenario

__all__ = ["emd_comparison", "mechanism_comparison"]


# ----------------------------------------------------------------------
# Table III: average EMD under different grouping methods
# ----------------------------------------------------------------------
def emd_comparison(scenario: Scenario, num_tiers: int = 10) -> Dict[str, float]:
    """Average group-vs-global EMD for Original / TiFL / Air-FedGA grouping.

    Each value is the mean of :attr:`GroupingResult.lambdas` (Λ_j, Eq. 11)
    of one grouping strategy over ``scenario``'s workers.  With the paper's
    label-skew partition (each worker holds one class) the "Original" value is
    ``|1/K − 1| + (K−1)·|1/K − 0| = 2(K−1)/K`` (= 1.8 for K = 10); TiFL's
    time-based tiers barely improve it, while the data-aware greedy grouping
    drives it toward 0.
    """
    problem = grouping_problem(scenario)
    return {
        "original": float(singleton_grouping(problem).lambdas.mean()),
        "tifl": float(tier_grouping(problem, num_groups=num_tiers).lambdas.mean()),
        "air_fedga": float(greedy_grouping(problem).lambdas.mean()),
    }


# ----------------------------------------------------------------------
# Table I: qualitative mechanism comparison, backed by measurements
# ----------------------------------------------------------------------
def mechanism_comparison(
    scenario: Scenario,
    mechanisms: Sequence[str] = ("fedavg", "air_fedavg", "dynamic", "tifl", "air_fedga"),
) -> Dict[str, Dict[str, float]]:
    """Measured characteristics backing the qualitative claims of Table I.

    Each mechanism runs ``scenario`` as a probe, and the same scenario with
    half the workers (at least 8), and reports:

    * ``avg_round_time_s`` / ``total_time_s`` — simulated time per round and
      for the whole probe (communication consumption proxy),
    * ``final_accuracy`` — test accuracy after the probe,
    * ``round_time_ratio_when_doubling_workers`` — average round time at the
      full worker count over that at half of it (scalability proxy; ≤ 1 is
      good, ``nan`` if the half-size probe recorded no time),
    * ``mean_staleness`` — mean staleness over the commits that had
      participants (0 for the synchronous mechanisms),
    * ``total_energy_j`` — cumulative transmit energy of the probe.
    """
    small = scenario.with_(num_workers=max(8, scenario.num_workers // 2))

    run_big = run_comparison(scenario, mechanisms=mechanisms)
    run_small = run_comparison(small, mechanisms=mechanisms)

    out: Dict[str, Dict[str, float]] = {}
    for name in mechanisms:
        hist_big = run_big[name]
        avg_round_big = hist_big.average_round_time()
        avg_round_small = run_small[name].average_round_time()
        staleness = hist_big.column("staleness")[hist_big.column("num_participants") > 0]
        out[name] = {
            "avg_round_time_s": avg_round_big,
            "total_time_s": hist_big.total_time,
            "final_accuracy": hist_big.final_accuracy,
            "round_time_ratio_when_doubling_workers": (
                avg_round_big / avg_round_small if avg_round_small > 0 else float("nan")
            ),
            "mean_staleness": float(np.mean(staleness)) if staleness.size else 0.0,
            "total_energy_j": hist_big.total_energy,
        }
    return out
