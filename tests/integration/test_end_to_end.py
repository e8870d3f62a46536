"""Integration tests: full federated training runs across the whole stack.

These tests exercise dataset generation -> partitioning -> heterogeneity ->
channel -> grouping -> power control -> asynchronous training -> metrics in
one go, on deliberately small problems.  They check *behavioural* properties
(learning happens, shapes of the paper's comparisons hold qualitatively)
rather than exact numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import StaticChannel
from repro.core import AirCompConfig, AirFedGAConfig
from repro.data import make_mnist_like, partition_label_skew
from repro.fl import FLExperiment, build_trainer
from repro.nn import LogisticRegressionMLP
from repro.sim import HeterogeneityModel, LatencyTable


NUM_WORKERS = 20


def build_exp(seed=0, noise_variance=1.0, num_workers=NUM_WORKERS, max_eval=120):
    dataset = make_mnist_like(
        num_train=800, num_test=200, image_size=8, seed=seed
    ).flattened()
    partition = partition_label_skew(dataset, num_workers=num_workers, seed=seed)
    latency = LatencyTable(
        num_workers=num_workers,
        base_time=4.0,
        heterogeneity=HeterogeneityModel(num_workers=num_workers, seed=seed + 1),
    )
    channel = StaticChannel(num_workers=num_workers, mean_gain=1.0, spread=2.0, seed=seed + 2)
    return FLExperiment(
        dataset=dataset,
        partition=partition,
        model_factory=lambda: LogisticRegressionMLP(input_dim=64, hidden=24, seed=seed),
        latency=latency,
        channel=channel,
        config=AirFedGAConfig(aircomp=AirCompConfig(noise_variance=noise_variance)),
        learning_rate=0.2,
        local_steps=4,
        batch_size=32,
        eval_every=4,
        max_eval_samples=max_eval,
        seed=seed,
        latency_model_dimension=670_730,
    )


@pytest.mark.slow
class TestLearningHappens:
    def test_air_fedga_learns_under_label_skew(self):
        trainer = build_trainer("air_fedga", build_exp())
        history = trainer.run(max_rounds=120, max_time=800.0)
        assert history.best_accuracy() > 0.5
        assert history.final_loss < history.losses()[0]

    def test_air_fedavg_learns(self):
        trainer = build_trainer("air_fedavg", build_exp())
        history = trainer.run(max_rounds=25, max_time=800.0)
        assert history.best_accuracy() > 0.5

    def test_fedavg_learns_with_exact_aggregation(self):
        trainer = build_trainer("fedavg", build_exp())
        history = trainer.run(max_rounds=15)
        assert history.best_accuracy() > 0.5


@pytest.mark.slow
class TestPaperShapes:
    def test_air_fedga_more_updates_per_unit_time_than_air_fedavg(self):
        """Group-asynchronous updates arrive more often than full synchronous ones."""
        ga = build_trainer("air_fedga", build_exp())
        ga_hist = ga.run(max_rounds=500, max_time=300.0)
        avg = build_trainer("air_fedavg", build_exp())
        avg_hist = avg.run(max_rounds=500, max_time=300.0)
        assert ga_hist.total_rounds > avg_hist.total_rounds

    def test_air_fedga_round_time_below_air_fedavg(self):
        ga_hist = build_trainer("air_fedga", build_exp()).run(max_rounds=30)
        avg_hist = build_trainer("air_fedavg", build_exp()).run(max_rounds=10)
        assert ga_hist.average_round_time() < avg_hist.average_round_time()

    def test_aircomp_round_time_below_oma_at_scale(self):
        """Air-FedAvg's upload phase is independent of N; FedAvg's grows with N."""
        air = build_trainer("air_fedavg", build_exp()).run(max_rounds=4)
        oma = build_trainer("fedavg", build_exp()).run(max_rounds=4)
        assert air.average_round_time() < oma.average_round_time()

    def test_grouping_reduces_staleness_versus_singletons(self):
        """Fewer groups -> smaller maximum staleness (Corollary 2 direction)."""
        grouped = build_trainer("air_fedga", build_exp(), grouping_strategy="greedy")
        singles = build_trainer("air_fedga", build_exp(), grouping_strategy="singleton")
        if len(grouped.groups) >= len(singles.groups):
            pytest.skip("greedy grouping did not merge workers on this fixture")
        g_hist = grouped.run(max_rounds=60)
        s_hist = singles.run(max_rounds=60)
        assert g_hist.max_staleness() <= s_hist.max_staleness()

    def test_noiseless_channel_not_worse_than_noisy(self):
        quiet = build_trainer("air_fedga", build_exp(noise_variance=1e-12))
        noisy = build_trainer("air_fedga", build_exp(noise_variance=50.0))
        q_hist = quiet.run(max_rounds=80, max_time=400.0)
        n_hist = noisy.run(max_rounds=80, max_time=400.0)
        assert q_hist.best_accuracy() >= n_hist.best_accuracy() - 0.05


@pytest.mark.slow
class TestReproducibility:
    def test_identical_runs_produce_identical_histories(self):
        a = build_trainer("air_fedga", build_exp(seed=3)).run(max_rounds=20)
        b = build_trainer("air_fedga", build_exp(seed=3)).run(max_rounds=20)
        np.testing.assert_allclose(a.accuracies(), b.accuracies())
        np.testing.assert_allclose(a.times(), b.times())
        np.testing.assert_allclose(a.energies(), b.energies())

    def test_different_seed_changes_trajectory(self):
        a = build_trainer("air_fedga", build_exp(seed=3)).run(max_rounds=20)
        b = build_trainer("air_fedga", build_exp(seed=4)).run(max_rounds=20)
        assert not np.allclose(a.accuracies(), b.accuracies())
