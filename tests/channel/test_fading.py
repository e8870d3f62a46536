"""Unit tests for channel gain models."""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.channel import RayleighFading, StaticChannel


class TestRayleighFading:
    def test_gains_positive_and_correct_length(self):
        ch = RayleighFading(num_workers=16, seed=0)
        g = ch.gains(0)
        assert g.shape == (16,)
        assert np.all(g > 0)

    def test_block_fading_same_round_same_gains(self):
        ch = RayleighFading(num_workers=8, seed=1)
        np.testing.assert_array_equal(ch.gains(3), ch.gains(3))

    def test_gains_change_across_rounds(self):
        ch = RayleighFading(num_workers=8, seed=1)
        assert not np.array_equal(ch.gains(0), ch.gains(1))

    def test_same_seed_reproducible(self):
        a = RayleighFading(num_workers=8, seed=5).gains(2)
        b = RayleighFading(num_workers=8, seed=5).gains(2)
        np.testing.assert_array_equal(a, b)

    def test_mean_gain_scaling(self):
        small = RayleighFading(num_workers=2000, mean_gain=1.0, pathloss_spread=1.0, seed=0)
        large = RayleighFading(num_workers=2000, mean_gain=4.0, pathloss_spread=1.0, seed=0)
        assert large.gains(0).mean() == pytest.approx(4 * small.gains(0).mean(), rel=1e-9)

    def test_unit_mean_rayleigh(self):
        ch = RayleighFading(num_workers=20000, mean_gain=1.0, pathloss_spread=1.0, seed=3)
        # With no path-loss spread the fading is normalized to unit mean.
        assert abs(ch.gains(7).mean() - 1.0) < 0.02

    def test_pathloss_spread_bounds_average_gains(self):
        ch = RayleighFading(num_workers=100, mean_gain=1.0, pathloss_spread=3.0, seed=0)
        avg = ch.average_gains
        assert np.all(avg >= 1.0 / 3.0 - 1e-12)
        assert np.all(avg <= 3.0 + 1e-12)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            RayleighFading(num_workers=4, seed=0).gains(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"num_workers": 4, "mean_gain": 0.0},
            {"num_workers": 4, "pathloss_spread": 0.5},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            RayleighFading(**kwargs)


class TestStaticChannel:
    def test_constant_across_rounds(self):
        ch = StaticChannel(num_workers=6, seed=0)
        np.testing.assert_array_equal(ch.gains(0), ch.gains(10))

    @pytest.mark.parametrize("spread", [1.0, 3.0])
    def test_gains_are_read_only_and_not_copied(self, spread):
        ch = StaticChannel(num_workers=6, spread=spread, seed=0)
        first = ch.gains(0)
        before = first.copy()
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 123.0
        with pytest.raises(ValueError, match="read-only"):
            first *= 2.0
        assert np.shares_memory(first, ch.gains(10))
        np.testing.assert_array_equal(ch.gains(0), ch.gains(10))
        np.testing.assert_array_equal(ch.gains(10), before)

    def test_unit_spread_gives_equal_gains(self):
        ch = StaticChannel(num_workers=6, mean_gain=2.0, spread=1.0, seed=0)
        np.testing.assert_allclose(ch.gains(0), 2.0)

    def test_spread_creates_heterogeneous_gains(self):
        ch = StaticChannel(num_workers=50, mean_gain=1.0, spread=4.0, seed=0)
        g = ch.gains(0)
        assert g.max() / g.min() > 1.5

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StaticChannel(num_workers=0)
        with pytest.raises(ValueError):
            StaticChannel(num_workers=3, spread=0.9)
        with pytest.raises(ValueError):
            StaticChannel(num_workers=3).gains(-2)


class TestFactory:
    def test_build_rayleigh(self):
        ch = registry.create("channel", "rayleigh", num_workers=5, seed=1)
        assert isinstance(ch, RayleighFading)

    def test_build_static(self):
        ch = registry.create("channel", "static", num_workers=5, seed=1)
        assert isinstance(ch, StaticChannel)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            registry.create("channel", "mmwave", num_workers=5)
