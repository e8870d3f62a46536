"""Unit tests for the core configuration objects."""

from __future__ import annotations

import pytest

from repro.core import (
    AirCompConfig,
    AirFedGAConfig,
    ConvergenceConfig,
    GroupingConfig,
)


class TestAirCompConfig:
    def test_paper_defaults(self):
        cfg = AirCompConfig()
        assert cfg.noise_variance == 1.0
        assert cfg.energy_budget_j == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_variance": -1.0},
            {"energy_budget_j": 0.0},
            {"num_subchannels": 0},
            {"symbol_duration_s": 0.0},
            {"power_control_tolerance": 0.0},
            {"power_control_max_iters": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AirCompConfig(**kwargs)

    def test_zero_noise_allowed(self):
        assert AirCompConfig(noise_variance=0.0).noise_variance == 0.0


class TestGroupingConfig:
    def test_default_xi_is_paper_operating_point(self):
        assert GroupingConfig().xi == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"xi": -0.1}, {"tie_break_seed": -1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GroupingConfig(**kwargs)

    def test_zero_xi_allowed(self):
        assert GroupingConfig(xi=0.0).xi == 0.0


class TestConvergenceConfig:
    def test_default_gamma_in_theorem_range(self):
        cfg = ConvergenceConfig()
        assert 1.0 / (2 * cfg.smoothness_L) < cfg.learning_rate_gamma < 1.0 / cfg.smoothness_L

    def test_gamma_outside_theorem_range_rejected(self):
        with pytest.raises(ValueError, match="1/\\(2L\\)"):
            ConvergenceConfig(learning_rate_gamma=0.3)
        with pytest.raises(ValueError):
            ConvergenceConfig(learning_rate_gamma=1.5)

    def test_mu_cannot_exceed_l(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(strong_convexity_mu=2.0, smoothness_L=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"smoothness_L": 0.0},
            {"strong_convexity_mu": -0.1},
            {"gradient_bound_G": 0.0},
            {"initial_gap": 0.0},
            {"target_epsilon": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceConfig(**kwargs)


class TestAirFedGAConfig:
    def test_default_composition(self):
        cfg = AirFedGAConfig()
        assert isinstance(cfg.aircomp, AirCompConfig)
        assert isinstance(cfg.grouping, GroupingConfig)
        assert isinstance(cfg.convergence, ConvergenceConfig)

    def test_sub_configs_are_independent_instances(self):
        a, b = AirFedGAConfig(), AirFedGAConfig()
        assert a.aircomp is not b.aircomp
