"""Unit tests for transmit-energy accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import EnergyTracker, transmit_energy


class TestTransmitEnergy:
    def test_matches_eq7(self):
        w = np.array([1.0, 2.0])
        # p = d*sigma/h = 4*0.5/2 = 1 -> E = p^2 * ||w||^2 = 5
        assert transmit_energy(w, 4.0, 2.0, 0.5) == pytest.approx(5.0)

    def test_scales_quadratically_with_sigma(self):
        w = np.ones(3)
        e1 = transmit_energy(w, 1.0, 1.0, 1.0)
        e2 = transmit_energy(w, 1.0, 1.0, 2.0)
        assert e2 == pytest.approx(4 * e1)

    def test_better_channel_needs_less_energy(self):
        w = np.ones(3)
        assert transmit_energy(w, 1.0, 2.0, 1.0) < transmit_energy(w, 1.0, 0.5, 1.0)

    def test_eq46_cap_spends_exactly_the_budget(self):
        """At σ = h √Ê / (d W), a vector of norm W costs exactly Ê."""
        budget, d, h, W = 10.0, 4.0, 1.5, 2.0
        w = np.array([W, 0.0])
        assert transmit_energy(w, d, h, h * np.sqrt(budget) / (d * W)) == pytest.approx(budget)

    @pytest.mark.parametrize("bad", [dict(data_size=0), dict(channel_gain=0), dict(sigma_t=0)])
    def test_invalid_arguments(self, bad):
        kwargs = dict(data_size=1.0, channel_gain=1.0, sigma_t=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            transmit_energy(np.ones(2), **kwargs)


class TestEnergyTracker:
    def test_accumulates_per_worker_and_total(self):
        tracker = EnergyTracker(num_workers=3)
        tracker.record_round([0, 2], [1.5, 2.5])
        tracker.record_round([0], [1.0])
        assert tracker.per_worker[0] == pytest.approx(2.5)
        assert tracker.per_worker[1] == 0.0
        assert tracker.total == pytest.approx(5.0)
        assert tracker.per_round == [4.0, 1.0]

    def test_record_returns_round_total(self):
        tracker = EnergyTracker(num_workers=2)
        assert tracker.record_round([0, 1], [1.0, 2.0]) == pytest.approx(3.0)

    def test_summary_keys(self):
        tracker = EnergyTracker(num_workers=2)
        tracker.record_round([0], [4.0])
        s = tracker.summary()
        assert s["total_energy_j"] == pytest.approx(4.0)
        assert s["rounds_recorded"] == 1.0

    def test_invalid_worker_id(self):
        tracker = EnergyTracker(num_workers=2)
        with pytest.raises(ValueError):
            tracker.record_round([5], [1.0])

    def test_negative_energy_rejected(self):
        tracker = EnergyTracker(num_workers=2)
        with pytest.raises(ValueError):
            tracker.record_round([0], [-1.0])

    def test_length_mismatch_rejected(self):
        tracker = EnergyTracker(num_workers=2)
        with pytest.raises(ValueError):
            tracker.record_round([0, 1], [1.0])

    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError):
            EnergyTracker(num_workers=0)
