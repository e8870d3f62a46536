"""Shared reporting for the Figs. 3-6 loss/accuracy-vs-time benchmarks."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments import (
    AIRCOMP_MECHANISMS,
    Scenario,
    format_series,
    format_table,
    run_comparison,
)
from repro.fl.history import TrainingHistory

__all__ = ["run_and_report_figure", "AIRCOMP_MECHANISMS"]


def run_and_report_figure(
    scenario: Scenario,
    title: str,
    accuracy_targets: Sequence[float],
    mechanisms: Sequence[str] = AIRCOMP_MECHANISMS,
) -> Dict[str, TrainingHistory]:
    """Run the mechanism comparison behind one loss/accuracy figure and print it.

    Returns the histories so the calling benchmark can assert the expected
    qualitative shape (Air-FedGA reaches the targets no later than the
    baselines within the shared time budget).
    """
    histories = run_comparison(scenario, mechanisms=mechanisms)

    series = {
        name: {"time": h.times(), "loss": h.losses(), "accuracy": h.accuracies()}
        for name, h in histories.items()
    }
    print(f"\n=== {title} ===")
    print("Accuracy vs simulated time:")
    print(format_series(series, x_key="time", y_key="accuracy", max_points=8))
    print("\nLoss vs simulated time:")
    print(format_series(series, x_key="time", y_key="loss", max_points=8))

    rows = []
    for name, h in histories.items():
        row = [name, h.total_rounds, h.average_round_time(), h.final_accuracy, h.final_loss]
        for target in accuracy_targets:
            row.append(h.time_to_accuracy(target))
        rows.append(tuple(row))
    headers = ["mechanism", "rounds", "avg round (s)", "final acc", "final loss"] + [
        f"t@{int(t * 100)}% (s)" for t in accuracy_targets
    ]
    print()
    print(format_table(headers, rows, title=f"{title} — summary"))
    return histories


def assert_air_fedga_competitive(
    histories: Dict[str, TrainingHistory], target: float, slack: float = 1.15
) -> None:
    """Check the paper's headline shape on one workload.

    Air-FedGA must reach the target accuracy, and do so no later than
    ``slack`` times the best baseline that also reaches it.  (The slack keeps
    the benchmark robust to simulation noise while still catching regressions
    that invert the ordering.)
    """
    ga = histories["air_fedga"].time_to_accuracy(target)
    assert ga is not None, f"Air-FedGA never reached {target:.0%} accuracy"
    baseline_times = [
        h.time_to_accuracy(target)
        for name, h in histories.items()
        if name != "air_fedga"
    ]
    reached = [t for t in baseline_times if t is not None]
    if reached:
        assert ga <= min(reached) * slack, (
            f"Air-FedGA needed {ga:.0f}s to reach {target:.0%}, baselines needed "
            f"{min(reached):.0f}s"
        )
