#!/usr/bin/env python
"""Explore how Air-FedGA responds to edge heterogeneity and the ξ knob.

The paper's Fig. 8 shows that the intra-group time-similarity slack ξ has a
sweet spot: ξ → 0 degenerates into fully-asynchronous single-worker groups
(losing the AirComp aggregation benefit), ξ → 1 allows slow and fast workers
to share a group (recreating the straggler problem).  This example sweeps ξ
and the heterogeneity level κ_max and reports the time to reach the target
accuracy, plus the number of groups Algorithm 3 ends up forming.

Run with::

    python examples/heterogeneity_sweep.py
"""

from __future__ import annotations

from repro.experiments import format_table, lr_mnist_config


def base_scenario():
    return lr_mnist_config(
        num_workers=30, num_train=1200, image_size=8, hidden=32, max_rounds=1000
    ).with_(
        training={
            "learning_rate": 0.2, "local_steps": 5, "eval_every": 5, "max_time": 1800.0
        }
    )


def xi_sweep_demo() -> None:
    base = base_scenario()
    rows = []
    for xi in (0.0, 0.2, 0.4, 0.8):
        history = base.with_(**{"algorithm.grouping.xi": xi}).run()
        groups = len({r.group_id for r in history.records if r.group_id >= 0})
        rows.append(
            (
                xi,
                groups,
                history.total_rounds,
                history.final_accuracy,
                history.time_to_accuracy(0.6),
            )
        )
    print(
        format_table(
            ["xi", "groups used", "rounds", "final acc", "time to 60% (s)"],
            rows,
            title="Sweep of the grouping slack xi (Fig. 8 trade-off)",
        )
    )


def heterogeneity_demo() -> None:
    rows = []
    for kappa_max in (1.0, 4.0, 10.0):
        scenario = base_scenario().with_(**{"timing.kappa_max": kappa_max})
        ga = scenario.with_(mechanism="air_fedga").run()
        avg = scenario.with_(mechanism="air_fedavg").run()
        rows.append(
            (
                kappa_max,
                ga.time_to_accuracy(0.6),
                avg.time_to_accuracy(0.6),
                ga.final_accuracy,
                avg.final_accuracy,
            )
        )
    print()
    print(
        format_table(
            ["kappa_max", "Air-FedGA t60 (s)", "Air-FedAvg t60 (s)",
             "Air-FedGA final acc", "Air-FedAvg final acc"],
            rows,
            title="Effect of edge heterogeneity (kappa ~ U[1, kappa_max])",
        )
    )
    print("\nWith homogeneous workers (kappa_max=1) the two mechanisms are similar;")
    print("the Air-FedGA advantage grows with heterogeneity, as in the paper.")


def main() -> None:
    xi_sweep_demo()
    heterogeneity_demo()


if __name__ == "__main__":
    main()
