"""Tests for the per-table experiment drivers."""

from __future__ import annotations

import pytest

from repro.core import GroupingProblem, greedy_grouping, singleton_grouping, tier_grouping
from repro.experiments import (
    cnn_mnist_config,
    emd_comparison,
    lr_mnist_config,
    mechanism_comparison,
)


class TestEMDComparison:
    def test_default_table_is_pinned(self):
        """Table III at the default scenario, exact to the last bit."""
        assert emd_comparison() == {
            "original": 1.800000000000001,
            "tifl": 0.7382035375186343,
            "air_fedga": 0.2955606466730636,
        }

    @pytest.mark.parametrize(
        "column, strategy",
        [
            ("original", lambda p: singleton_grouping(p)),
            ("tifl", lambda p: tier_grouping(p, num_groups=4)),
            ("air_fedga", lambda p: greedy_grouping(p)),
        ],
    )
    def test_columns_are_mean_group_lambdas(self, column, strategy):
        """Each column is the mean Λ_j the grouping itself reports."""
        scenario = cnn_mnist_config(seed=0).with_(num_workers=20)
        experiment = scenario.build_experiment()
        problem = GroupingProblem(
            data_sizes=experiment.partition.data_sizes(),
            class_counts=experiment.partition.class_counts(),
            local_times=experiment.latency.nominal,
            model_dimension=scenario.training.latency_model_dimension or 10_000,
            config=scenario.algorithm,
        )
        result = emd_comparison(num_workers=20, num_tiers=4, seed=0)
        assert result[column] == float(strategy(problem).lambdas.mean())

    def test_original_matches_paper_value(self):
        """Single-label workers over 10 balanced classes give EMD = 1.8."""
        result = emd_comparison(num_workers=20, num_tiers=4, seed=0)
        assert result["original"] == pytest.approx(1.8, abs=0.05)

    def test_ordering_matches_table_iii(self):
        """Air-FedGA grouping reduces EMD below TiFL, which is below Original."""
        result = emd_comparison(num_workers=30, num_tiers=5, seed=0)
        assert result["air_fedga"] < result["tifl"] < result["original"]

    def test_values_within_emd_range(self):
        result = emd_comparison(num_workers=20, num_tiers=4, seed=1)
        for value in result.values():
            assert 0.0 <= value <= 2.0


class TestMechanismComparison:
    def test_probe_reports_all_mechanisms(self):
        scenario = lr_mnist_config(
            num_workers=6, num_train=120, image_size=8, hidden=8, max_rounds=3
        ).with_(training={"eval_every": 1, "max_eval_samples": 40, "local_steps": 1})
        result = mechanism_comparison(
            scenario, mechanisms=("fedavg", "air_fedga"), max_rounds=3
        )
        assert set(result) == {"fedavg", "air_fedga"}
        for row in result.values():
            # The documented keys are the returned keys.
            assert set(row) == {
                "avg_round_time_s",
                "total_time_s",
                "final_accuracy",
                "round_time_ratio_when_doubling_workers",
                "mean_staleness",
                "total_energy_j",
            }
            assert row["avg_round_time_s"] > 0
            assert 0.0 <= row["final_accuracy"] <= 1.0
        assert result["fedavg"]["mean_staleness"] == 0.0
