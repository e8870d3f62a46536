"""Per-table experiment drivers (Tables I and III of the paper)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..core.grouping import (
    GroupingProblem,
    greedy_grouping,
    singleton_grouping,
    tier_grouping,
)
from .configs import cnn_mnist_config
from .runner import run_comparison
from .scenario import Scenario

__all__ = ["emd_comparison", "mechanism_comparison"]


# ----------------------------------------------------------------------
# Table III: average EMD under different grouping methods
# ----------------------------------------------------------------------
def emd_comparison(
    num_workers: int = 100,
    num_tiers: int = 10,
    seed: int = 0,
    scenario: Optional[Scenario] = None,
) -> Dict[str, float]:
    """Average group-vs-global EMD for Original / TiFL / Air-FedGA grouping.

    Each value is the mean of :attr:`GroupingResult.lambdas` (Λ_j, Eq. 11)
    of one grouping strategy.  With the paper's label-skew partition (each
    worker holds one class) the "Original" value is
    ``|1/K − 1| + (K−1)·|1/K − 0| = 2(K−1)/K`` (= 1.8 for K = 10); TiFL's
    time-based tiers barely improve it, while the data-aware greedy grouping
    drives it toward 0.
    """
    scenario = scenario or cnn_mnist_config(seed=seed)
    scenario = scenario.with_(num_workers=num_workers)
    experiment = scenario.build_experiment()
    partition = experiment.partition
    problem = GroupingProblem(
        data_sizes=partition.data_sizes(),
        class_counts=partition.class_counts(),
        local_times=experiment.latency.nominal,
        model_dimension=scenario.training.latency_model_dimension or 10_000,
        config=scenario.algorithm,
    )
    return {
        "original": float(singleton_grouping(problem).lambdas.mean()),
        "tifl": float(tier_grouping(problem, num_groups=num_tiers).lambdas.mean()),
        "air_fedga": float(greedy_grouping(problem).lambdas.mean()),
    }


# ----------------------------------------------------------------------
# Table I: qualitative mechanism comparison, backed by measurements
# ----------------------------------------------------------------------
def mechanism_comparison(
    scenario: Optional[Scenario] = None,
    mechanisms: Sequence[str] = ("fedavg", "air_fedavg", "dynamic", "tifl", "air_fedga"),
    max_rounds: int = 15,
) -> Dict[str, Dict[str, float]]:
    """Measured characteristics backing the qualitative claims of Table I.

    Each mechanism runs a ``max_rounds`` probe on ``scenario`` (default:
    CNN-MNIST, 16 workers) and on the same scenario with half the workers
    (at least 8), and reports:

    * ``avg_round_time_s`` / ``total_time_s`` — simulated time per round and
      for the whole probe (communication consumption proxy),
    * ``final_accuracy`` — test accuracy after the probe,
    * ``round_time_ratio_when_doubling_workers`` — average round time at the
      full worker count over that at half of it (scalability proxy; ≤ 1 is
      good, ``nan`` if the half-size probe recorded no time),
    * ``mean_staleness`` — mean recorded staleness over the rounds that had
      participants (0 for the synchronous mechanisms),
    * ``total_energy_j`` — cumulative transmit energy of the probe.
    """
    scenario = scenario or cnn_mnist_config(num_workers=16)
    big = scenario.with_(**{"training.max_rounds": max_rounds})
    small = big.with_(num_workers=max(8, scenario.num_workers // 2))

    run_big = run_comparison(big, mechanisms=mechanisms)
    run_small = run_comparison(small, mechanisms=mechanisms)

    out: Dict[str, Dict[str, float]] = {}
    for name in mechanisms:
        hist_big = run_big[name]
        avg_round_big = hist_big.average_round_time()
        avg_round_small = run_small[name].average_round_time()
        staleness = [
            float(record.staleness)
            for record in hist_big.records
            if record.num_participants > 0
        ]
        out[name] = {
            "avg_round_time_s": avg_round_big,
            "total_time_s": hist_big.total_time,
            "final_accuracy": hist_big.final_accuracy,
            "round_time_ratio_when_doubling_workers": (
                avg_round_big / avg_round_small if avg_round_small > 0 else float("nan")
            ),
            "mean_staleness": float(np.mean(staleness)) if staleness else 0.0,
            "total_energy_j": hist_big.total_energy,
        }
    return out
