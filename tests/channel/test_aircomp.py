"""Unit tests for over-the-air aggregation over the noisy fading MAC."""

from __future__ import annotations

import numpy as np
import pytest

from oracle.aggregation import ideal_group_average
from repro.channel import (
    aircomp_aggregate,
    aircomp_latency,
    aggregation_error_term,
)


RNG = lambda: np.random.default_rng(0)  # noqa: E731


class TestIdealGroupAverage:
    def test_weighted_average(self):
        models = [np.array([1.0, 1.0]), np.array([3.0, 3.0])]
        avg = ideal_group_average(models, [1.0, 3.0])
        np.testing.assert_allclose(avg, [2.5, 2.5])

    def test_equal_weights(self):
        models = [np.array([0.0]), np.array([2.0])]
        np.testing.assert_allclose(ideal_group_average(models, [5, 5]), [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ideal_group_average([], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ideal_group_average([np.zeros(2)], [1.0, 2.0])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            ideal_group_average([np.zeros(2)], [0.0])


class TestAirCompAggregate:
    def test_noiseless_matched_factors_recover_weighted_sum(self):
        """With z = 0 and σ = √η the estimate equals Σ d_i w_i / D exactly."""
        models = np.array([[1.0, 2.0], [3.0, -1.0]])
        sizes = [10.0, 30.0]
        gains = [0.5, 2.0]
        result = aircomp_aggregate(
            models, sizes, gains, sigma_t=2.0, eta_t=4.0, noise_std=0.0,
            rng=RNG(),
        )
        expected = ideal_group_average(models, sizes)
        np.testing.assert_allclose(result.estimate, expected)

    def test_global_normalization_scales_by_group_share(self):
        models = np.ones((1, 3))
        result = aircomp_aggregate(
            models, [20.0], [1.0], sigma_t=1.0, eta_t=1.0, noise_std=0.0,
            rng=RNG(), total_data_size=100.0,
        )
        # Group holds 20 of 100 samples, so the estimate is 0.2 * w.
        np.testing.assert_allclose(result.estimate, 0.2)

    def test_received_signal_is_superposition(self):
        """With η = 1 and D = 1 the estimate is the raw received signal."""
        models = np.array([[1.0], [2.0]])
        result = aircomp_aggregate(
            models, [5.0, 10.0], [1.0, 1.0], sigma_t=3.0, eta_t=1.0,
            noise_std=0.0, rng=RNG(), total_data_size=1.0,
        )
        np.testing.assert_allclose(result.estimate, [5 * 3 * 1 + 10 * 3 * 2])

    def test_transmit_power_follows_inverse_channel(self):
        """Unit-norm models spend p_i² with p_i = d_i σ / h_i (Eq. 6)."""
        result = aircomp_aggregate(
            np.full((2, 4), 0.5), [4.0, 4.0], [0.5, 2.0], sigma_t=1.0,
            eta_t=1.0, noise_std=0.0, rng=RNG(),
        )
        np.testing.assert_allclose(result.transmit_energies, [8.0**2, 2.0**2])

    def test_energy_matches_eq7(self):
        w = np.array([1.0, 2.0, 2.0])
        result = aircomp_aggregate(
            w[None], [3.0], [1.5], sigma_t=2.0, eta_t=4.0, noise_std=0.0, rng=RNG(),
        )
        power = 3.0 * 2.0 / 1.5
        np.testing.assert_allclose(result.transmit_energies, [power**2 * 9.0])

    def test_noise_perturbs_estimate(self):
        models = np.zeros((1, 1000))
        result = aircomp_aggregate(
            models, [1.0], [1.0], sigma_t=1.0, eta_t=1.0, noise_std=0.5,
            rng=RNG(),
        )
        assert np.abs(result.estimate).mean() > 0

    def test_noise_statistics(self):
        """The injected noise has (approximately) the requested std."""
        models = np.zeros((1, 20000))
        result = aircomp_aggregate(
            models, [1.0], [1.0], sigma_t=1.0, eta_t=1.0, noise_std=0.3,
            rng=RNG(),
        )
        # η = 1 and D = 1: the estimate is the received signal, here all noise.
        assert abs(result.estimate.std() - 0.3) < 0.01

    def test_denoising_factor_scales_estimate(self):
        models = np.ones((1, 4))
        small_eta = aircomp_aggregate(
            models, [2.0], [1.0], sigma_t=1.0, eta_t=0.25, noise_std=0.0, rng=RNG()
        )
        # estimate = sigma / sqrt(eta) * w = 2 * w
        np.testing.assert_allclose(small_eta.estimate, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_t": 0.0, "eta_t": 1.0, "noise_std": 0.0},
            {"sigma_t": 1.0, "eta_t": 0.0, "noise_std": 0.0},
            {"sigma_t": 1.0, "eta_t": 1.0, "noise_std": -1.0},
        ],
    )
    def test_invalid_factors(self, kwargs):
        with pytest.raises(ValueError):
            aircomp_aggregate(np.ones((1, 2)), [1.0], [1.0], rng=RNG(), **kwargs)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            aircomp_aggregate(
                np.empty((0, 2)), [], [], sigma_t=1, eta_t=1, noise_std=0, rng=RNG()
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            aircomp_aggregate(
                [np.ones(2), np.ones(3)], [1, 1], [1, 1],
                sigma_t=1, eta_t=1, noise_std=0, rng=RNG(),
            )

    @pytest.mark.parametrize(
        "models",
        [[np.ones(2)], np.ones(2), np.ones((1, 1, 2)), np.ones((1, 2), dtype=np.int64)],
        ids=["list", "1-d", "3-d", "int64"],
    )
    def test_refuses_anything_but_a_2d_float_array(self, models):
        with pytest.raises(ValueError, match="2-D float32 or float64"):
            aircomp_aggregate(
                models, [1.0], [1.0], sigma_t=1, eta_t=1, noise_std=0, rng=RNG()
            )

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError):
            aircomp_aggregate(
                np.ones((1, 2)), [1.0], [0.0], sigma_t=1, eta_t=1, noise_std=0, rng=RNG()
            )


class TestAggregationErrorTerm:
    def test_zero_when_matched_and_noiseless(self):
        assert aggregation_error_term(2.0, 4.0, 1.0, 0.0, 10.0) == pytest.approx(0.0)

    def test_known_value(self):
        # (1/sqrt(4) - 1)^2 * 9 + 1 / (25 * 4) = 0.25*9 + 0.01 = 2.26
        val = aggregation_error_term(1.0, 4.0, 3.0, 1.0, 5.0)
        assert val == pytest.approx(2.26)

    def test_increases_with_noise(self):
        low = aggregation_error_term(1.0, 1.0, 1.0, 0.1, 5.0)
        high = aggregation_error_term(1.0, 1.0, 1.0, 1.0, 5.0)
        assert high > low

    def test_decreases_with_group_size(self):
        small = aggregation_error_term(1.0, 1.0, 1.0, 1.0, 5.0)
        large = aggregation_error_term(1.0, 1.0, 1.0, 1.0, 50.0)
        assert large < small

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            aggregation_error_term(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            aggregation_error_term(1.0, 1.0, 1.0, 1.0, 0.0)


class TestAirCompLatency:
    def test_formula(self):
        # L_u = ceil(q / R) * Ls
        assert aircomp_latency(1000, 10, 0.01) == pytest.approx(1.0)

    def test_independent_of_worker_count(self):
        """The core scalability property: latency depends only on q, R, Ls."""
        assert aircomp_latency(640, 64, 1e-4) == aircomp_latency(640, 64, 1e-4)

    def test_rounds_up_partial_symbols(self):
        assert aircomp_latency(101, 100, 1.0) == pytest.approx(2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            aircomp_latency(0, 1, 1.0)
        with pytest.raises(ValueError):
            aircomp_latency(10, 0, 1.0)
        with pytest.raises(ValueError):
            aircomp_latency(10, 1, 0.0)
        with pytest.raises(ValueError):
            aircomp_latency(100, float("nan"), 1e-4)
