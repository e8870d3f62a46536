"""Unit tests for channel gain models."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import registry
from repro.channel import RayleighFading, StaticChannel

from oracle.channel import rayleigh_gains


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
        avg = ch._avg_gain
        assert np.all(avg >= 1.0 / 3.0 - 1e-12)
        assert np.all(avg <= 3.0 + 1e-12)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            RayleighFading(num_workers=4, seed=0).gains(-1)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gains_are_the_one_expression_bit_for_bit(self, seed):
        ch = RayleighFading(num_workers=5000, mean_gain=0.7, pathloss_spread=3.0, seed=seed)
        for round_index in (0, 1, 2, 9):
            assert ch.gains(round_index).tobytes() == rayleigh_gains(ch, round_index).tobytes()

    def test_a_draw_at_a_million_workers_holds_its_two_buffers(self):
        """One call peaks below 2.5 float64 arrays of N traced (the two draw
        buffers, one of them returned); the deep-fade floor is hit and equals
        the expression's."""
        n = 1_000_000
        ch = RayleighFading(num_workers=n, seed=0)
        tracemalloc.start()
        try:
            gains = ch.gains(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n
        assert np.any(gains == 1e-3 * ch._avg_gain)
        assert gains.tobytes() == rayleigh_gains(ch, 3).tobytes()

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

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("mean_gain", [1.0, 0.37, 3])
    def test_spread_gains_are_the_one_expression_bit_for_bit(self, seed, mean_gain):
        """The in-place draw equals ``mean_gain * np.exp(draw)``."""
        ch = StaticChannel(num_workers=257, mean_gain=mean_gain, spread=5.0, seed=seed)
        log_spread = np.log(5.0)
        draw = np.random.default_rng(seed).uniform(-log_spread, log_spread, size=257)
        assert np.array_equal(ch.gains(0), mean_gain * np.exp(draw))
        assert ch.gains(0).dtype == np.float64

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
