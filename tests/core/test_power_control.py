"""Unit tests for the power-control algorithm (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import aggregation_error_term, aircomp_aggregate
from repro.core import AirCompConfig, optimal_eta, solve_power_control


CFG = AirCompConfig(noise_variance=1e-3, energy_budget_j=10.0)


class TestOptimalEta:
    def test_closed_form_value(self):
        # eta = ((sigma^2 W^2 + sv/D^2) / (sigma W^2))^2
        sigma, W, sv, D = 0.5, 2.0, 0.04, 2.0
        expected = ((sigma**2 * W**2 + sv / D**2) / (sigma * W**2)) ** 2
        assert optimal_eta(sigma, W, sv, D) == pytest.approx(expected)

    def test_is_stationary_point_of_error_term(self):
        """The returned eta must be a minimizer of C_t for the given sigma."""
        sigma, W, sv, D = 0.7, 3.0, 0.01, 5.0
        eta_star = optimal_eta(sigma, W, sv, D)
        c_star = aggregation_error_term(sigma, eta_star, W, sv, D)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert c_star <= aggregation_error_term(sigma, eta_star * factor, W, sv, D) + 1e-12

    def test_noiseless_case_matches_sigma(self):
        # With zero noise the optimum is sqrt(eta) = sigma (no shrinkage).
        assert optimal_eta(0.5, 2.0, 0.0, 1.0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_eta(0.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            optimal_eta(1.0, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            optimal_eta(1.0, 1.0, 0.1, 0.0)


class TestSolvePowerControl:
    def _solve(self, **overrides):
        kwargs = dict(
            data_sizes=[20.0, 30.0, 50.0],
            channel_gains=[0.8, 1.2, 1.0],
            model_bound=10.0,
            config=CFG,
        )
        kwargs.update(overrides)
        return solve_power_control(**kwargs)

    def test_converges(self):
        result = self._solve()
        assert result.converged
        assert result.iterations <= CFG.power_control_max_iters

    def test_sigma_respects_energy_cap(self):
        """The cap is Eq. 46's min over workers of h_i √Ê / (d_i W_t)."""
        result = self._solve()
        caps = np.array([0.8, 1.2, 1.0]) * np.sqrt(10.0) / (np.array([20.0, 30.0, 50.0]) * 10.0)
        assert result.sigma_cap == pytest.approx(caps.min())
        assert result.sigma <= result.sigma_cap + 1e-12

    def test_energy_budget_satisfied_for_every_worker(self):
        """Constraint (41b): a worker transmitting a vector of norm W_t stays within budget."""
        sizes = np.array([20.0, 30.0, 50.0])
        gains = np.array([0.8, 1.2, 1.0])
        result = self._solve()
        w = np.zeros((3, 4))
        w[:, 0] = 10.0  # norm exactly the model bound
        at_sigma, at_cap = (
            aircomp_aggregate(w, sizes, gains, sigma_t=s, eta_t=1.0, noise_std=0.0,
                              rng=np.random.default_rng(0)).transmit_energies
            for s in (result.sigma, result.sigma_cap)
        )
        assert np.all(at_sigma <= CFG.energy_budget_j + 1e-9)
        # At the cap the binding worker spends exactly its budget.
        assert at_cap[2] == pytest.approx(CFG.energy_budget_j)

    def test_error_term_not_worse_than_naive_choices(self):
        result = self._solve()
        group = 100.0
        naive = aggregation_error_term(result.sigma_cap, 1.0, 10.0, CFG.noise_variance, group)
        assert result.error_term <= naive

    def test_eta_is_optimal_for_final_sigma(self):
        result = self._solve()
        group = 100.0
        eta_expected = optimal_eta(result.sigma, 10.0, CFG.noise_variance, group)
        assert result.eta == pytest.approx(eta_expected, rel=1e-4)

    def test_alternation_monotonically_improves(self):
        result = self._solve()
        errors = [h[2] for h in result.history]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_zero_noise_gives_zero_error(self):
        cfg = AirCompConfig(noise_variance=0.0)
        result = self._solve(config=cfg)
        assert result.error_term == pytest.approx(0.0, abs=1e-15)
        # With no noise the matched condition sigma = sqrt(eta) is optimal.
        assert result.sigma == pytest.approx(np.sqrt(result.eta), rel=1e-6)

    def test_larger_budget_does_not_hurt(self):
        tight = self._solve(config=AirCompConfig(noise_variance=1e-3, energy_budget_j=1.0))
        loose = self._solve(config=AirCompConfig(noise_variance=1e-3, energy_budget_j=100.0))
        assert loose.error_term <= tight.error_term + 1e-12
        assert loose.sigma_cap == pytest.approx(10.0 * tight.sigma_cap)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._solve(data_sizes=[], channel_gains=[])
        with pytest.raises(ValueError):
            self._solve(model_bound=0.0)
        with pytest.raises(ValueError):
            self._solve(channel_gains=[0.8, 1.2])


class TestSigmaCap:
    """Eq. 46: σ_t ≤ min_i h_i √Ê / (d_i W_t), as power control applies it."""

    @staticmethod
    def _solve(sizes, gains, model_bound, budget, noise=1e-3):
        config = AirCompConfig(noise_variance=noise, energy_budget_j=budget)
        return solve_power_control(sizes, gains, model_bound, config)

    def test_single_worker_cap_value(self):
        # h √Ê / (d W) = 1 · 4 / (4 · 2) = 0.5
        assert self._solve([4.0], [1.0], 2.0, 16.0).sigma_cap == pytest.approx(0.5)

    def test_cap_is_minimum_over_workers(self):
        result = self._solve([1.0, 2.0], [1.0, 1.0], 1.0, 1.0)
        assert result.sigma_cap == pytest.approx(0.5)

    def test_cap_binds_under_noise(self):
        """With σ_n² > 0, √η(σ) > σ (Eq. 44), so Eq. 47 settles at the cap."""
        for budget in (0.1, 10.0, 1e6):
            result = self._solve([20.0, 30.0], [0.8, 1.2], 10.0, budget)
            assert result.sigma == result.sigma_cap

    def test_cap_halves_when_the_model_bound_doubles(self):
        low = self._solve([20.0, 30.0], [0.8, 1.2], 5.0, 10.0)
        high = self._solve([20.0, 30.0], [0.8, 1.2], 10.0, 10.0)
        assert high.sigma_cap == pytest.approx(0.5 * low.sigma_cap)

    def test_cap_scales_with_the_binding_gain(self):
        base = self._solve([10.0], [0.5], 1.0, 4.0)
        better = self._solve([10.0], [1.5], 1.0, 4.0)
        assert better.sigma_cap == pytest.approx(3.0 * base.sigma_cap)

    def test_cap_does_not_depend_on_noise(self):
        quiet = self._solve([20.0, 30.0], [0.8, 1.2], 10.0, 10.0, noise=0.0)
        loud = self._solve([20.0, 30.0], [0.8, 1.2], 10.0, 10.0, noise=1.0)
        assert quiet.sigma_cap == loud.sigma_cap

    def test_rejects_non_positive_sizes_or_gains(self):
        with pytest.raises(ValueError):
            self._solve([0.0, 1.0], [1.0, 1.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            self._solve([1.0, 1.0], [1.0, -1.0], 1.0, 1.0)
