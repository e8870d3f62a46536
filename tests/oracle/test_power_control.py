"""The closed-form Algorithm 2 against the paper's alternation.

``solve_power_control`` is one step of Eq. (44) and Eq. (47) from the energy
cap; :func:`oracle.power_control.alternate` alternates the two until they
stop changing.  They must agree bit for bit, including where the noise term
is zero or below one ULP of σ and √η rounds below the cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AirCompConfig, solve_power_control

from oracle.power_control import alternate


def _log_uniform(low: float, high: float) -> st.SearchStrategy[float]:
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: float(10.0**e))


@st.composite
def instances(draw):
    """A P3 instance: sizes, gains, W, Ê and σ₀², the last from three regimes."""
    n = draw(st.integers(1, 49))
    sizes = draw(st.lists(st.integers(1, 10_000).map(float), min_size=n, max_size=n))
    gains = draw(st.lists(_log_uniform(1e-3, 10.0), min_size=n, max_size=n))
    model_bound = draw(_log_uniform(1e-3, 1e3))
    budget = draw(_log_uniform(1e-3, 1e2))
    regime = draw(st.sampled_from(["zero", "below_ulp", "wide"]))
    if regime == "zero":
        noise = 0.0
    elif regime == "wide":
        noise = draw(_log_uniform(1e-12, 1e2))
    else:
        # σ₀² with n / (σ W²) = r · 2⁻⁵³ · σ, r ≤ 1: below one ULP of σ = σ_cap.
        cap = float((np.array(gains) * np.sqrt(budget) / (np.array(sizes) * model_bound)).min())
        r = draw(st.floats(1e-3, 1.0))
        noise = r * 2.0**-53 * (cap * model_bound * sum(sizes)) ** 2
    return sizes, gains, model_bound, AirCompConfig(noise_variance=noise, energy_budget_j=budget)


# √η rounds one ULP below the cap 0.06 with σ₀² = 0 and with a noise term
# below one ULP of σ: σ = σ_cap alone would differ from the alternation here.
BELOW_CAP_NOISELESS = ([1.0], [0.18], 3.0, AirCompConfig(noise_variance=0.0, energy_budget_j=1.0))
BELOW_CAP_NOISY = (
    [1.0], [0.18], 3.0, AirCompConfig(noise_variance=3.1962521356841208e-18, energy_budget_j=1.0)
)


@settings(max_examples=300)
@given(instances())
@example(BELOW_CAP_NOISELESS)
@example(BELOW_CAP_NOISY)
def test_closed_form_is_the_alternation_bit_for_bit(instance):
    sizes, gains, model_bound, config = instance
    reference = alternate(sizes, gains, model_bound, config)
    result = solve_power_control(sizes, gains, model_bound, config)
    assert reference.converged and reference.iterations == result.iterations == 1
    assert (result.sigma, result.eta, result.error_term, result.sigma_cap) == (
        reference.sigma,
        reference.eta,
        reference.error_term,
        reference.sigma_cap,
    )


@pytest.mark.parametrize("instance", [BELOW_CAP_NOISELESS, BELOW_CAP_NOISY])
def test_the_examples_round_below_the_cap(instance):
    """Pins what the two ``@example`` cases are there for."""
    reference = alternate(*instance)
    assert reference.sigma < reference.sigma_cap


class TestAlternation:
    CONFIG = AirCompConfig(noise_variance=1e-3, energy_budget_j=10.0)
    INSTANCE = ([20.0, 30.0, 50.0], [0.8, 1.2, 1.0], 10.0, CONFIG)

    def test_alternation_monotonically_improves(self):
        result = alternate(*self.INSTANCE, sigma_start=1e-4)
        errors = [h[2] for h in result.history]
        assert len(errors) > 1
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_a_lower_start_creeps_up_to_the_cap(self):
        """Each step raises σ by σ₀² / (D² σ W²) until the cap: there is no
        other fixed point, and a start below it stops early only when the
        step budget runs out first."""
        config = AirCompConfig(noise_variance=0.01, energy_budget_j=1.0)
        cut = alternate([1.0], [1.0], 1.0, config, max_iters=5, sigma_start=0.25)
        assert not cut.converged and cut.sigma < cut.sigma_cap == 1.0
        full = alternate([1.0], [1.0], 1.0, config, sigma_start=0.25)
        cold = solve_power_control([1.0], [1.0], 1.0, config)
        assert full.converged and full.sigma == cold.sigma == 1.0
        assert cut.error_term > full.error_term
