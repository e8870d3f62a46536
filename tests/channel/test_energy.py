"""Unit tests for transmit energy: Eq. 7 as the trainers spend it
(``aircomp_aggregate(...).transmit_energies``).  The run's account of it is
the history's energy columns (``tests/fl/test_base.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import aircomp_aggregate


def _energies(models, sizes, gains, sigma):
    """Per-worker transmit energies of one noiseless aggregation."""
    return aircomp_aggregate(
        np.atleast_2d(np.asarray(models, dtype=np.float64)), sizes, gains,
        sigma_t=sigma, eta_t=1.0, noise_std=0.0, rng=np.random.default_rng(0),
    ).transmit_energies


class TestTransmitEnergy:
    def test_matches_eq7(self):
        # p = d*sigma/h: 4*0.5/2 = 1 -> E = 1 * ||(1, 2)||^2 = 5;
        # 6*0.5/1 = 3 -> E = 9 * ||(1, 0)||^2 = 9.
        energies = _energies([[1.0, 2.0], [1.0, 0.0]], [4.0, 6.0], [2.0, 1.0], 0.5)
        np.testing.assert_allclose(energies, [5.0, 9.0], rtol=1e-12)

    def test_scales_quadratically_with_sigma(self):
        w = np.ones(3)
        e1 = _energies(w, [1.0], [1.0], 1.0)
        e2 = _energies(w, [1.0], [1.0], 2.0)
        np.testing.assert_allclose(e2, 4 * e1, rtol=1e-12)

    def test_better_channel_needs_less_energy(self):
        better, worse = _energies(np.ones((2, 3)), [1.0, 1.0], [2.0, 0.5], 1.0)
        assert better < worse

    def test_eq46_cap_spends_exactly_the_budget(self):
        """At σ = h √Ê / (d W), a vector of norm W costs exactly Ê."""
        budget, d, h, W = 10.0, 4.0, 1.5, 2.0
        (energy,) = _energies([W, 0.0], [d], [h], h * np.sqrt(budget) / (d * W))
        assert energy == pytest.approx(budget)

    @pytest.mark.parametrize("bad", [dict(data_size=0), dict(channel_gain=0), dict(sigma_t=0)])
    def test_invalid_arguments(self, bad):
        args = {"data_size": 1.0, "channel_gain": 1.0, "sigma_t": 1.0, **bad}
        with pytest.raises(ValueError, match="positive"):
            _energies(np.ones(2), [args["data_size"]], [args["channel_gain"]], args["sigma_t"])
