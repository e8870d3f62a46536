"""Unit tests for the edge-heterogeneity latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import HeterogeneityModel, LatencyTable


class TestHeterogeneityModel:
    def test_kappa_within_range(self):
        model = HeterogeneityModel(num_workers=200, kappa_min=1.0, kappa_max=10.0, seed=0)
        k = model.kappa
        assert np.all(k >= 1.0) and np.all(k <= 10.0)

    def test_paper_range_spans_most_of_interval(self):
        model = HeterogeneityModel(num_workers=500, seed=1)
        k = model.kappa
        assert k.min() < 2.0 and k.max() > 8.0

    def test_reproducible(self):
        a = HeterogeneityModel(num_workers=10, seed=3).kappa
        b = HeterogeneityModel(num_workers=10, seed=3).kappa
        np.testing.assert_array_equal(a, b)

    def test_kappa_is_a_copy(self):
        model = HeterogeneityModel(num_workers=5, seed=0)
        kappa = model.kappa
        kappa[2] = -1.0
        assert model.kappa[2] > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"num_workers": 3, "kappa_min": 0.0},
            {"num_workers": 3, "kappa_min": 5.0, "kappa_max": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HeterogeneityModel(**kwargs)


class TestLatencyTable:
    def test_homogeneous_without_heterogeneity_model(self):
        table = LatencyTable(num_workers=4, base_time=3.0)
        np.testing.assert_allclose(table.nominal, 3.0)

    def test_times_scale_with_kappa(self):
        het = HeterogeneityModel(num_workers=6, seed=0)
        table = LatencyTable(num_workers=6, base_time=2.0, heterogeneity=het)
        np.testing.assert_allclose(table.nominal, 2.0 * het.kappa)

    def test_sample_time_without_jitter_is_nominal(self):
        het = HeterogeneityModel(num_workers=5, seed=0)
        table = LatencyTable(num_workers=5, base_time=2.0, heterogeneity=het)
        for w in range(5):
            assert table.sample_time(w, 3) == table.nominal[w]

    def test_nominal_is_read_only_view(self):
        table = LatencyTable(num_workers=4, base_time=1.5)
        view = table.nominal
        assert np.shares_memory(view, table.nominal)
        with pytest.raises(ValueError):
            view[0] = 99.0

    def test_jitter_is_deterministic_per_worker_and_round(self):
        table = LatencyTable(num_workers=3, base_time=1.0, jitter_std=0.2, seed=7)
        assert table.sample_time(1, 4) == table.sample_time(1, 4)
        assert table.sample_time(1, 4) != table.sample_time(1, 5)

    def test_jitter_stays_positive(self):
        table = LatencyTable(num_workers=3, base_time=1.0, jitter_std=2.0, seed=7)
        for w in range(3):
            for r in range(20):
                assert table.sample_time(w, r) > 0

    def test_mismatched_heterogeneity_size_rejected(self):
        het = HeterogeneityModel(num_workers=4, seed=0)
        with pytest.raises(ValueError):
            LatencyTable(num_workers=5, base_time=1.0, heterogeneity=het)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0, "base_time": 1.0},
            {"num_workers": 3, "base_time": 0.0},
            {"num_workers": 3, "base_time": 1.0, "jitter_std": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LatencyTable(**kwargs)

    def test_invalid_worker_id(self):
        table = LatencyTable(num_workers=3, base_time=1.0)
        with pytest.raises(ValueError):
            table.sample_time(7, 0)
        with pytest.raises(ValueError):
            table.sample_times([0, 7])
