#!/usr/bin/env python
"""Compare Air-FedGA against the paper's baselines on one workload.

Reproduces a miniature of Fig. 3 (LR on MNIST): all five mechanisms —
FedAvg, TiFL, Air-FedAvg, Dynamic and Air-FedGA — train the same model on
the same Non-IID partition under the same simulated heterogeneity and
channel, for the same simulated time budget.  The script prints accuracy-
vs-time traces and the time each mechanism needs to reach the target
accuracy, which is the paper's headline comparison.

Run with::

    python examples/mechanism_comparison.py
"""

from __future__ import annotations

from repro.experiments import (
    format_series,
    format_table,
    lr_mnist_config,
    run_comparison,
)


def main() -> None:
    scenario = lr_mnist_config(
        num_workers=40, num_train=1600, image_size=8, hidden=32, max_rounds=2000
    ).with_(
        training={
            "learning_rate": 0.2,
            "local_steps": 5,
            "eval_every": 5,
            "max_time": 2500.0,
        }
    )

    mechanisms = ("fedavg", "tifl", "air_fedavg", "dynamic", "air_fedga")
    print(f"Running {len(mechanisms)} mechanisms on {scenario.name} "
          f"({scenario.num_workers} workers, Non-IID label skew)...")
    histories = run_comparison(scenario, mechanisms=mechanisms)

    series = {
        name: {"time": h.times(), "accuracy": h.accuracies()}
        for name, h in histories.items()
    }
    print()
    print("Accuracy vs simulated time (seconds):")
    print(format_series(series, x_key="time", y_key="accuracy", max_points=8))

    target = 0.6
    rows = []
    for name, history in histories.items():
        rows.append(
            (
                name,
                history.total_rounds,
                history.average_round_time(),
                history.final_accuracy,
                history.time_to_accuracy(target),
                history.total_energy,
            )
        )
    print()
    print(
        format_table(
            ["mechanism", "rounds", "avg round (s)", "final acc",
             f"time to {int(target*100)}% (s)", "energy (J)"],
            rows,
            title="Mechanism comparison (same simulated time budget)",
        )
    )

    # Paper-style speedup statement.
    t_ga = histories["air_fedga"].time_to_accuracy(target)
    t_avg = histories["air_fedavg"].time_to_accuracy(target)
    t_dyn = histories["dynamic"].time_to_accuracy(target)
    if t_ga and t_avg:
        print(f"\nAir-FedGA is {100 * (1 - t_ga / t_avg):.1f}% faster than "
              f"Air-FedAvg to {int(target*100)}% accuracy")
    if t_ga and t_dyn:
        print(f"Air-FedGA is {100 * (1 - t_ga / t_dyn):.1f}% faster than "
              f"Dynamic to {int(target*100)}% accuracy")


if __name__ == "__main__":
    main()
