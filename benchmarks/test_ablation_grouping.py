"""Ablation E-A2: grouping strategy — data-aware greedy vs time tiers vs random.

The grouping objective (P4, Algorithm 3) is a design choice worth ablating.
All strategies run the *same* Air-FedGA aggregation mechanism and differ
only in how the groups are formed:

* ``greedy``    — the paper's Algorithm 3 (time-similar groups, near-IID
  inter-group label distributions),
* ``tier``      — TiFL-style tiers by local-training time only,
* ``random``    — random assignment into the same number of groups,
* ``singleton`` — every worker alone (fully asynchronous, no AirComp gain).
"""

from __future__ import annotations

from repro.experiments import ACCURACY_TARGETS, fig3_config, format_table
from repro.fl import AirFedGATrainer


STRATEGIES = ("greedy", "tier", "random", "singleton")


def run_ablation():
    scenario = fig3_config(num_workers=30, max_time=1500.0)
    results = {}
    greedy_groups = None
    for strategy in STRATEGIES:
        experiment = scenario.build_experiment()
        kwargs = {}
        if strategy in ("tier", "random") and greedy_groups is not None:
            kwargs["num_groups"] = greedy_groups
        trainer = AirFedGATrainer(experiment, grouping_strategy=strategy, **kwargs)
        if strategy == "greedy":
            greedy_groups = trainer.grouping_result.num_groups
        history = trainer.run(
            max_rounds=scenario.training.max_rounds, max_time=scenario.training.max_time
        )
        results[strategy] = {
            "history": history,
            "num_groups": trainer.grouping_result.num_groups,
            "emd": float(trainer.grouping_result.lambdas.mean()),
        }
    return results


def test_ablation_grouping(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    target = ACCURACY_TARGETS["lr_mnist"][0]

    rows = []
    for strategy in STRATEGIES:
        entry = results[strategy]
        h = entry["history"]
        rows.append(
            (
                strategy,
                entry["num_groups"],
                entry["emd"],
                h.total_rounds,
                h.best_accuracy(),
                h.time_to_accuracy(target),
            )
        )
    print("\n=== Ablation — grouping strategy (Air-FedGA mechanism) ===")
    print(
        format_table(
            ["strategy", "groups", "avg EMD", "rounds", "best acc",
             f"t@{int(target*100)}% (s)"],
            rows,
        )
    )

    greedy = results["greedy"]
    # The data-aware greedy grouping yields lower inter-group EMD than time
    # tiers and random groups of the same group count.
    assert greedy["emd"] <= results["tier"]["emd"] + 1e-9
    assert greedy["emd"] <= results["random"]["emd"] + 0.1
    # The greedy grouping learns: it reaches the target within the budget.
    assert greedy["history"].time_to_accuracy(target) is not None
    # Fully-asynchronous singleton groups perform many more (smaller) updates.
    assert results["singleton"]["num_groups"] > greedy["num_groups"]
