#!/usr/bin/env python
"""Inspect the two optimization algorithms of the paper in isolation.

Part 1 — Worker grouping (Algorithm 3): build a population of 100
heterogeneous workers with label-skewed data, run the greedy grouping and
compare its average earth-mover distance (EMD) and estimated training time
against TiFL-style time tiers and random groups (Table III / Fig. 7).

Part 2 — Power control (Algorithm 2): for one group and one fading
realization, run the alternating optimization of the power scaling factor
σ_t and denoising factor η_t, and show how the aggregation error term C_t
shrinks relative to naive choices, and how it responds to the energy budget.

Run with::

    python examples/grouping_and_power_control.py
"""

from __future__ import annotations

import numpy as np

from repro.channel import RayleighFading
from repro.core import (
    AirCompConfig,
    AirFedGAConfig,
    GroupingProblem,
    greedy_grouping,
    random_grouping,
    singleton_grouping,
    solve_power_control,
    tier_grouping,
)
from repro.channel.aircomp import aggregation_error_term
from repro.data import make_mnist_like, partition_label_skew
from repro.experiments import format_table
from repro.sim import HeterogeneityModel, LatencyTable


def grouping_demo(num_workers: int = 100, seed: int = 7) -> None:
    dataset = make_mnist_like(num_train=2000, num_test=200, image_size=8, seed=seed)
    partition = partition_label_skew(dataset, num_workers=num_workers, seed=seed)
    latency = LatencyTable(
        num_workers=num_workers,
        base_time=6.0,
        heterogeneity=HeterogeneityModel(num_workers=num_workers, seed=seed + 1),
    )
    problem = GroupingProblem(
        data_sizes=partition.data_sizes(),
        class_counts=partition.class_counts(),
        local_times=latency.nominal,
        model_dimension=670_730,
        config=AirFedGAConfig(),
    )

    greedy = greedy_grouping(problem)
    tiers = tier_grouping(problem, num_groups=greedy.num_groups)
    rand = random_grouping(problem, num_groups=greedy.num_groups, seed=seed)

    rows = [
        ("original (1 worker = 1 group)", num_workers,
         float(singleton_grouping(problem).lambdas.mean()), float("nan")),
        ("TiFL time tiers", tiers.num_groups,
         float(tiers.lambdas.mean()), float(tiers.group_times.max())),
        ("random groups", rand.num_groups,
         float(rand.lambdas.mean()), float(rand.group_times.max())),
        ("Air-FedGA greedy (Alg. 3)", greedy.num_groups,
         float(greedy.lambdas.mean()), float(greedy.group_times.max())),
    ]
    print(
        format_table(
            ["grouping method", "groups", "avg EMD", "slowest group time (s)"],
            rows,
            title="Part 1 - worker grouping (100 workers, label-skew Non-IID)",
        )
    )
    print()
    print("Per-group spread of local training times under Algorithm 3 (Fig. 7):")
    times = latency.nominal
    for gid, members in enumerate(sorted(greedy.groups, key=lambda g: np.median(times[g]))):
        member_times = times[list(members)]
        print(
            f"  group {gid + 1}: {len(members):3d} workers, "
            f"times {member_times.min():5.1f}s .. {member_times.max():5.1f}s, "
            f"median {np.median(member_times):5.1f}s"
        )


def power_control_demo(seed: int = 11) -> None:
    num_workers = 10
    rng = np.random.default_rng(seed)
    channel = RayleighFading(num_workers=num_workers, seed=seed)
    gains = channel.gains(0)
    data_sizes = rng.integers(20, 80, size=num_workers).astype(float)
    model_bound = 25.0
    config = AirCompConfig(noise_variance=1e-4, energy_budget_j=10.0)

    result = solve_power_control(
        data_sizes=data_sizes,
        channel_gains=gains,
        model_bound=model_bound,
        config=config,
    )
    group_size = float(data_sizes.sum())
    naive_sigma = result.sigma_cap
    naive_eta = 1.0
    naive_error = aggregation_error_term(
        naive_sigma, naive_eta, model_bound, config.noise_variance, group_size
    )

    print()
    print("Part 2 - power control (Algorithm 2) for one group / one round")
    print(f"  converged in {result.iterations} iterations "
          f"(converged={result.converged})")
    print(f"  sigma* = {result.sigma:.6f}   (energy cap {result.sigma_cap:.6f})")
    print(f"  eta*   = {result.eta:.6e}")
    print(f"  error term C_t with Algorithm 2 : {result.error_term:.6e}")
    print(f"  error term C_t with naive eta=1 : {naive_error:.6e}")
    print(f"  improvement factor              : {naive_error / result.error_term:.1f}x")

    print("\n  Effect of the per-round energy budget on C_t:")
    rows = []
    for budget in (0.1, 1.0, 10.0, 100.0):
        cfg = AirCompConfig(noise_variance=1e-4, energy_budget_j=budget)
        res = solve_power_control(data_sizes, gains, model_bound, cfg)
        rows.append((budget, res.sigma, res.eta, res.error_term))
    print(
        format_table(
            ["energy budget (J)", "sigma*", "eta*", "C_t"],
            rows,
            precision=6,
        )
    )


def main() -> None:
    grouping_demo()
    power_control_demo()


if __name__ == "__main__":
    main()
