"""Per-figure experiment drivers.

Each function regenerates the data series behind one figure of the paper's
evaluation section.  They return plain dictionaries / NumPy arrays (no
plotting dependency); the ``benchmarks/test_fig*`` drivers print them as
text tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.grouping import GroupingProblem, greedy_grouping
from .configs import cnn_mnist_config
from .runner import run_comparison
from .scenario import Scenario

__all__ = [
    "grouping_boxplot_data",
    "xi_sweep",
    "energy_vs_accuracy",
    "scalability_sweep",
]

#: The three AirComp mechanisms compared in Figs. 3-6.
AIRCOMP_MECHANISMS = ("air_fedga", "air_fedavg", "dynamic")

#: All five mechanisms compared in Fig. 10.
ALL_MECHANISMS = ("fedavg", "tifl", "air_fedavg", "dynamic", "air_fedga")


# ----------------------------------------------------------------------
# Figure 7: grouping of heterogeneous workers at ξ = 0.3
# ----------------------------------------------------------------------
def grouping_boxplot_data(
    num_workers: int = 100,
    xi: float = 0.3,
    base_local_time: float = 6.0,
    seed: int = 0,
) -> Dict[int, List[float]]:
    """Per-group lists of member local-training times (the Fig. 7 box plot).

    Uses the paper's population: ``num_workers`` workers with κ ~ U[1, 10]
    and one label each, grouped by Algorithm 3 at the given ξ.
    """
    scenario = cnn_mnist_config(num_workers=num_workers, seed=seed).with_(
        **{"algorithm.grouping.xi": xi, "timing.base_local_time": base_local_time}
    )
    experiment = scenario.build_experiment()
    local_times = experiment.latency.nominal
    problem = GroupingProblem(
        data_sizes=experiment.partition.data_sizes(),
        class_counts=experiment.partition.class_counts(),
        local_times=local_times,
        model_dimension=scenario.training.latency_model_dimension or 10_000,
        config=scenario.algorithm,
    )
    result = greedy_grouping(problem)
    data: Dict[int, List[float]] = {}
    # Order groups by their median member time so the box plot reads
    # left-to-right like the paper's Fig. 7.
    ordered = sorted(
        range(len(result.groups)),
        key=lambda g: float(np.median(local_times[result.groups[g]])),
    )
    for rank, g in enumerate(ordered, start=1):
        data[rank] = [float(local_times[w]) for w in result.groups[g]]
    return data


# ----------------------------------------------------------------------
# Figure 8: training time to target accuracy vs. ξ
# ----------------------------------------------------------------------
def xi_sweep(
    scenario: Scenario,
    xi_values: Sequence[float] = (0.0, 0.3, 0.6, 1.0),
    accuracy_targets: Sequence[float] = (0.5, 0.6, 0.7),
) -> Dict[float, Dict[float, Optional[float]]]:
    """Time to reach each accuracy target as a function of the grouping slack ξ.

    Returns ``{xi: {target: time or None}}``.  The paper's Fig. 8 shows a
    U-shape: tiny ξ degenerates to fully-asynchronous single-worker groups
    (no AirComp benefit), large ξ recreates the straggler problem.
    """
    results: Dict[float, Dict[float, Optional[float]]] = {}
    for xi in xi_values:
        history = scenario.with_(
            mechanism="air_fedga", **{"algorithm.grouping.xi": xi}
        ).run()
        results[xi] = {
            target: history.time_to_accuracy(target) for target in accuracy_targets
        }
        results[xi]["_final_accuracy"] = history.final_accuracy
        results[xi]["_total_time"] = history.total_time
        results[xi]["_num_groups"] = float(
            len({r.group_id for r in history.records if r.group_id >= 0}) or 1
        )
    return results


# ----------------------------------------------------------------------
# Figure 9: aggregation energy vs. target accuracy
# ----------------------------------------------------------------------
def energy_vs_accuracy(
    scenario: Scenario,
    accuracy_targets: Sequence[float] = (0.4, 0.5, 0.6),
    mechanisms: Sequence[str] = AIRCOMP_MECHANISMS,
) -> Dict[str, Dict[float, Optional[float]]]:
    """Cumulative transmit energy when each accuracy target is first reached."""
    out: Dict[str, Dict[float, Optional[float]]] = {}
    for name, history in run_comparison(scenario, mechanisms=mechanisms).items():
        out[name] = {t: history.energy_to_accuracy(t) for t in accuracy_targets}
        out[name]["_final_accuracy"] = history.final_accuracy
        out[name]["_total_energy"] = history.total_energy
    return out


# ----------------------------------------------------------------------
# Figure 10: scalability with the number of workers
# ----------------------------------------------------------------------
def scalability_sweep(
    base_scenario: Scenario,
    worker_counts: Sequence[int] = (10, 20, 40),
    mechanisms: Sequence[str] = ALL_MECHANISMS,
    accuracy_target: float = 0.5,
    max_rounds: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[str, Optional[float]]]]:
    """Average single-round time and total training time vs. worker count.

    Returns ``{mechanism: {N: {"avg_round_time": ..., "total_time": ...,
    "time_to_target": ...}}}``.
    """
    results: Dict[str, Dict[int, Dict[str, Optional[float]]]] = {
        m: {} for m in mechanisms
    }
    for n in worker_counts:
        if n < 2:
            raise ValueError("worker counts must be >= 2")
        scenario = base_scenario.with_(num_workers=n)
        if max_rounds is not None:
            scenario = scenario.with_(**{"training.max_rounds": max_rounds})
        for name, history in run_comparison(scenario, mechanisms=mechanisms).items():
            results[name][n] = {
                "avg_round_time": history.average_round_time(),
                "total_time": history.total_time,
                "time_to_target": history.time_to_accuracy(accuracy_target),
                "final_accuracy": history.final_accuracy,
                "rounds": float(history.total_rounds),
            }
    return results
