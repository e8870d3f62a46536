"""Property-based tests for the wireless channel substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracle.aggregation import ideal_group_average
from repro.channel import aggregation_error_term, aircomp_aggregate


positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
model_values = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def group_of_models(draw, max_workers=5, max_dim=8):
    n = draw(st.integers(1, max_workers))
    dim = draw(st.integers(1, max_dim))
    models = [
        draw(hnp.arrays(dtype=np.float64, shape=(dim,), elements=model_values))
        for _ in range(n)
    ]
    sizes = [draw(positive) for _ in range(n)]
    gains = [draw(positive) for _ in range(n)]
    return models, sizes, gains


class TestAirCompProperties:
    @given(group=group_of_models(), sigma=positive)
    @settings(max_examples=80, deadline=None)
    def test_noiseless_matched_aggregation_is_exact(self, group, sigma):
        """With z=0 and σ=√η, over-the-air aggregation equals the ideal average."""
        models, sizes, gains = group
        result = aircomp_aggregate(
            np.stack(models), sizes, gains, sigma_t=sigma, eta_t=sigma**2,
            noise_std=0.0, rng=np.random.default_rng(0),
        )
        expected = ideal_group_average(models, sizes)
        np.testing.assert_allclose(result.estimate, expected, rtol=1e-9, atol=1e-9)

    @given(group=group_of_models(), sigma=positive, eta=positive)
    @settings(max_examples=60, deadline=None)
    def test_energies_match_closed_form(self, group, sigma, eta):
        models, sizes, gains = group
        result = aircomp_aggregate(
            np.stack(models), sizes, gains, sigma_t=sigma, eta_t=eta,
            noise_std=0.0, rng=np.random.default_rng(0),
        )
        for i, (w, d, h) in enumerate(zip(models, sizes, gains)):
            expected = (d * sigma / h) ** 2 * float(np.dot(w, w))  # Eq. 7
            assert result.transmit_energies[i] == pytest.approx(expected, rel=1e-9)

    @given(group=group_of_models(), sigma=positive, eta=positive)
    @settings(max_examples=60, deadline=None)
    def test_received_signal_linear_in_models(self, group, sigma, eta):
        """Doubling every local model doubles the noiseless received signal
        (read as the estimate, the received signal over D √η)."""
        models, sizes, gains = group
        kwargs = dict(
            data_sizes=sizes, channel_gains=gains, sigma_t=sigma, eta_t=eta,
            noise_std=0.0, rng=np.random.default_rng(0),
        )
        once = aircomp_aggregate(np.stack(models), **kwargs).estimate
        twice = aircomp_aggregate(2 * np.stack(models), **kwargs).estimate
        np.testing.assert_allclose(twice, 2 * once, rtol=1e-9, atol=1e-12)

    @given(
        sigma=positive, eta=positive, bound=positive,
        noise=st.floats(0.0, 10.0, allow_nan=False), size=positive,
    )
    @settings(max_examples=80, deadline=None)
    def test_error_term_nonnegative(self, sigma, eta, bound, noise, size):
        assert aggregation_error_term(sigma, eta, bound, noise, size) >= 0.0

    @given(sigma=positive, bound=positive, noise=positive, size=positive)
    @settings(max_examples=60, deadline=None)
    def test_error_term_zero_iff_matched_and_noiseless(self, sigma, bound, noise, size):
        matched_noiseless = aggregation_error_term(sigma, sigma**2, bound, 0.0, size)
        assert matched_noiseless == pytest.approx(0.0, abs=1e-18)
        with_noise = aggregation_error_term(sigma, sigma**2, bound, noise, size)
        assert with_noise > 0.0
