#!/usr/bin/env python
"""Quickstart: train a federated model with Air-FedGA in ~30 seconds.

This example builds the smallest end-to-end Air-FedGA run:

1. generate a synthetic MNIST-like dataset,
2. partition it across 20 heterogeneous workers with label skew (each worker
   holds samples of a single class, the paper's Non-IID setting),
3. group the workers with the paper's greedy grouping algorithm,
4. train with grouping-asynchronous over-the-air aggregation, and
5. print the loss/accuracy trace and the time to reach the target accuracy.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.channel import RayleighFading
from repro.core import AirFedGAConfig
from repro.data import make_mnist_like, partition_label_skew
from repro.experiments import format_table
from repro.fl import AirFedGATrainer, FLExperiment
from repro.nn import LogisticRegressionMLP
from repro.sim import HeterogeneityModel, LatencyTable


def main() -> None:
    num_workers = 20
    seed = 42

    # 1. Data: 10-class MNIST-shaped synthetic dataset, flattened for the MLP.
    dataset = make_mnist_like(num_train=1200, num_test=300, image_size=8, seed=seed)
    dataset = dataset.flattened()

    # 2. Non-IID partition + simulated edge heterogeneity (kappa in [1, 10]).
    partition = partition_label_skew(dataset, num_workers=num_workers, seed=seed)
    heterogeneity = HeterogeneityModel(num_workers=num_workers, seed=seed + 1)
    latency = LatencyTable(
        num_workers=num_workers, base_time=6.0, heterogeneity=heterogeneity
    )
    channel = RayleighFading(num_workers=num_workers, seed=seed + 2)

    experiment = FLExperiment(
        dataset=dataset,
        partition=partition,
        model_factory=lambda: LogisticRegressionMLP(
            input_dim=64, hidden=32, num_classes=10, seed=seed
        ),
        latency=latency,
        channel=channel,
        config=AirFedGAConfig(),
        learning_rate=0.2,
        local_steps=5,
        batch_size=32,
        eval_every=5,
        seed=seed,
    )

    # 3./4. Group the workers and train asynchronously over the air.
    trainer = AirFedGATrainer(experiment)
    print("Worker groups found by Algorithm 3:")
    for gid, members in enumerate(trainer.groups):
        times = experiment.latency.nominal[members]
        print(
            f"  group {gid}: {len(members):2d} workers, "
            f"local training times {min(times):.1f}s - {max(times):.1f}s, "
            f"label EMD {trainer.grouping_result.lambdas[gid]:.2f}"
        )

    history = trainer.run(max_rounds=200, max_time=1500.0)

    # 5. Report.
    sampled = np.flatnonzero(history.column("sampled"))
    sampled = sampled[:: max(1, sampled.size // 12)]
    columns = ("round_index", "time", "loss", "accuracy", "staleness")
    rows = list(zip(*(history.column(name)[sampled].tolist() for name in columns)))
    print()
    print(
        format_table(
            ["round", "time (s)", "loss", "accuracy", "staleness"],
            rows,
            title="Air-FedGA training trace",
        )
    )
    print()
    t60 = history.time_to_accuracy(0.6)
    print(f"final accuracy: {history.final_accuracy:.3f}")
    print(f"time to 60% accuracy: {t60:.0f}s" if t60 else "60% accuracy not reached")
    print(f"total transmit energy: {history.total_energy:.1f} J")
    print(f"max observed staleness: {history.max_staleness()}")


if __name__ == "__main__":
    main()
