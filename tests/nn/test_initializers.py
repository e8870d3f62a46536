"""Unit tests for weight initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import initializers as init


RNG = lambda: np.random.default_rng(0)  # noqa: E731


class TestBasicInitializers:
    def test_zeros(self):
        out = init.zeros((3, 4))
        assert out.shape == (3, 4)
        assert np.all(out == 0.0)

    def test_determinism_with_same_seed(self):
        a = init.xavier_uniform((5, 5), np.random.default_rng(42))
        b = init.xavier_uniform((5, 5), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = init.he_normal((5, 5), np.random.default_rng(1))
        b = init.he_normal((5, 5), np.random.default_rng(2))
        assert not np.allclose(a, b)


class TestFanComputation:
    def test_conv_fan(self):
        fan_in, fan_out = init.conv_fan((8, 3, 5, 5))
        assert fan_in == 3 * 25
        assert fan_out == 8 * 25

    def test_conv_fan_rejects_non_4d(self):
        with pytest.raises(ValueError):
            init.conv_fan((3, 3))


class TestScaledInitializers:
    @pytest.mark.parametrize("fn", [init.xavier_uniform, init.he_normal])
    def test_shapes(self, fn):
        assert fn((6, 4), RNG()).shape == (6, 4)
        assert fn((8, 3, 3, 3), RNG()).shape == (8, 3, 3, 3)

    def test_xavier_uniform_bound(self):
        fan_in, fan_out = 100, 50
        out = init.xavier_uniform((fan_in, fan_out), RNG())
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(out) <= limit + 1e-12)

    def test_he_normal_variance_scales_with_fan_in(self):
        small_fan = init.he_normal((10, 4000), RNG())
        large_fan = init.he_normal((1000, 40), RNG())
        # Var = 2/fan_in, so the small-fan-in init must have larger spread.
        assert small_fan.std() > large_fan.std() * 3

    def test_generic_shape_fallback(self):
        # 1-D shapes should not crash (fan_in = fan_out = size).
        out = init.xavier_uniform((50,), RNG())
        assert out.shape == (50,)
