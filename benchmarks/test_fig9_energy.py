"""Figure 9: model-aggregation energy consumption vs. target accuracy.

Paper result (CNN on MNIST and CIFAR-10): to reach the same accuracy,
Air-FedGA spends slightly more transmit energy than Air-FedAvg (its groups
aggregate more often) but clearly less than Dynamic (which needs many more
rounds because its worker selection ignores the data distribution) — e.g.
28432 J (Air-FedAvg) vs 30856 J (Air-FedGA) vs 42343 J (Dynamic) at 55% on
CIFAR-10.
"""

from __future__ import annotations

from repro.experiments import energy_vs_accuracy, format_table
from .workloads import ACCURACY_TARGETS, fig4_config


def run_energy():
    scenario = fig4_config(num_workers=30, max_time=2200.0)
    targets = ACCURACY_TARGETS["cnn_mnist"]
    return energy_vs_accuracy(scenario, accuracy_targets=targets), targets


def test_fig9_energy(benchmark):
    results, targets = benchmark.pedantic(run_energy, rounds=1, iterations=1)

    rows = []
    for name, entry in results.items():
        rows.append(
            tuple(
                [name]
                + [entry[t] for t in targets]
                + [entry["_final_accuracy"], entry["_total_energy"]]
            )
        )
    print("\n=== Fig. 9 — aggregation energy vs accuracy (CNN on synthetic MNIST) ===")
    print(
        format_table(
            ["mechanism"]
            + [f"E@{int(t*100)}% (J)" for t in targets]
            + ["final acc", "total energy (J)"],
            rows,
            precision=1,
        )
    )

    # Every AirComp mechanism spends transmit energy.
    for name, entry in results.items():
        assert entry["_total_energy"] > 0, f"{name} recorded no transmit energy"

    # Paper ordering per accuracy level: Air-FedAvg <= Air-FedGA (the grouped
    # mechanism aggregates more often, so it pays somewhat more energy), and
    # Dynamic is the most expensive way to reach a given accuracy — either it
    # spends more energy than Air-FedGA at the highest level both reach, or it
    # simply never reaches the levels Air-FedGA reaches within the budget.
    reached_by_ga = [t for t in targets if results["air_fedga"][t] is not None]
    assert reached_by_ga, "Air-FedGA reached none of the accuracy targets"
    lowest = reached_by_ga[0]
    if results["air_fedavg"][lowest] is not None:
        assert results["air_fedavg"][lowest] <= results["air_fedga"][lowest] * 1.2

    highest = reached_by_ga[-1]
    dyn_at_highest = results["dynamic"][highest]
    if dyn_at_highest is not None:
        assert results["air_fedga"][highest] <= dyn_at_highest * 1.2
    else:
        # Dynamic never reached the accuracy Air-FedGA reached: its energy to
        # that accuracy is effectively unbounded, which is the paper's point.
        assert results["dynamic"]["_final_accuracy"] <= results["air_fedga"]["_final_accuracy"]
