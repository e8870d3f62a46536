"""Tests for the per-figure experiment drivers (scaled down for speed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    FIGURES,
    energy_vs_accuracy,
    grouping_boxplot_data,
    lr_mnist_config,
    scalability_sweep,
    xi_sweep,
)


def tiny_scenario(max_rounds=4, num_workers=6, **overrides):
    scenario = lr_mnist_config(
        num_workers=num_workers,
        num_train=20 * num_workers,
        image_size=8,
        hidden=8,
        max_rounds=max_rounds,
    ).with_(
        training={
            "eval_every": 1, "max_eval_samples": 40, "local_steps": 1, "batch_size": 16
        }
    )
    return scenario.with_(**overrides) if overrides else scenario


def boxplot_scenario(num_workers, xi, seed):
    """Fig. 7's scenario with fewer workers, another ξ and another seed."""
    return FIGURES["fig7"]().with_(
        num_workers=num_workers, seed=seed, **{"algorithm.grouping.xi": xi}
    )


class TestGroupingBoxplot:
    def test_groups_cover_all_workers(self):
        data = grouping_boxplot_data(boxplot_scenario(12, xi=0.3, seed=0))
        total = sum(len(v) for v in data.values())
        assert total == 12

    def test_groups_ordered_by_median_time(self):
        data = grouping_boxplot_data(boxplot_scenario(12, xi=0.3, seed=0))
        medians = [np.median(v) for _, v in sorted(data.items())]
        assert all(a <= b + 1e-9 for a, b in zip(medians, medians[1:]))

    def test_all_times_positive(self):
        data = grouping_boxplot_data(boxplot_scenario(10, xi=0.5, seed=1))
        assert all(t > 0 for v in data.values() for t in v)


class TestXiSweep:
    def test_returns_entry_per_xi(self):
        results = xi_sweep(
            tiny_scenario(max_rounds=3),
            xi_values=(0.0, 0.5),
            accuracy_targets=(0.2,),
        )
        assert set(results) == {0.0, 0.5}
        for entry in results.values():
            assert "_final_accuracy" in entry
            assert "_num_groups" in entry

    def test_zero_xi_uses_more_groups_than_large_xi(self):
        results = xi_sweep(
            tiny_scenario(max_rounds=3),
            xi_values=(0.0, 1.0),
            accuracy_targets=(0.2,),
        )
        assert results[0.0]["_num_groups"] >= results[1.0]["_num_groups"]

    def test_sweep_varies_only_xi(self):
        """The caller's other algorithm settings survive the sweep (it used
        to rebuild the algorithm config from three of its sections)."""
        setting = {"algorithm.grouping.sort_descending_by_data": False}
        scenario = tiny_scenario(max_rounds=6, num_workers=20, **setting)
        swept = xi_sweep(scenario, xi_values=(0.3,), accuracy_targets=())[0.3]
        direct = scenario.with_(**{"algorithm.grouping.xi": 0.3}).run()
        assert swept["_total_time"] == direct.total_time
        # ...and the setting is one the outcome depends on.
        default = xi_sweep(
            tiny_scenario(max_rounds=6, num_workers=20),
            xi_values=(0.3,),
            accuracy_targets=(),
        )[0.3]
        assert swept["_num_groups"] != default["_num_groups"]

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            xi_sweep(tiny_scenario(), xi_values=(-0.1,))


class TestEnergyVsAccuracy:
    def test_structure(self):
        results = energy_vs_accuracy(
            tiny_scenario(max_rounds=3),
            accuracy_targets=(0.15,),
            mechanisms=("air_fedavg", "air_fedga"),
        )
        assert set(results) == {"air_fedavg", "air_fedga"}
        for entry in results.values():
            assert "_total_energy" in entry
            assert entry["_total_energy"] >= 0


class TestScalabilitySweep:
    def test_structure_and_monotone_oma_round_time(self):
        results = scalability_sweep(
            tiny_scenario(max_rounds=2),
            worker_counts=(4, 8),
            mechanisms=("fedavg", "air_fedga"),
            accuracy_target=0.2,
        )
        assert set(results) == {"fedavg", "air_fedga"}
        assert set(results["fedavg"]) == {4, 8}
        for n in (4, 8):
            assert results["fedavg"][n]["avg_round_time"] > 0

    def test_rejects_tiny_worker_counts(self):
        with pytest.raises(ValueError):
            scalability_sweep(tiny_scenario(), worker_counts=(1,), mechanisms=("fedavg",))
