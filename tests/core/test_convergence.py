"""Unit tests for the convergence analysis (Lemma 1, Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AirFedGAConfig,
    ConvergenceBound,
    ConvergenceConfig,
    GroupingProblem,
    lemma1_bound_sequence,
    lemma1_decay,
    lemma1_residual,
    rounds_to_epsilon,
    theorem1_bound,
    theorem1_delta,
    theorem1_rho,
)
from repro.core.grouping import _objectives


CFG = ConvergenceConfig()
PSI = [0.5, 0.5]
BETA = [0.4, 0.6]
LAMBDAS = [0.5, 0.2]


class TestLemma1:
    def test_decay_value(self):
        # (0.3 + 0.4)^(1/(1+1)) = sqrt(0.7)
        assert lemma1_decay(0.3, 0.4, 1) == pytest.approx(np.sqrt(0.7))

    def test_decay_increases_with_staleness(self):
        assert lemma1_decay(0.3, 0.4, 5) > lemma1_decay(0.3, 0.4, 0)

    def test_residual_value(self):
        assert lemma1_residual(0.3, 0.4, 0.6) == pytest.approx(2.0)

    def test_requires_contraction(self):
        with pytest.raises(ValueError):
            lemma1_decay(0.6, 0.5, 0)
        with pytest.raises(ValueError):
            lemma1_residual(0.6, 0.5, 0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            lemma1_decay(-0.1, 0.5, 0)
        with pytest.raises(ValueError):
            lemma1_residual(0.1, 0.2, -1.0)
        with pytest.raises(ValueError):
            lemma1_decay(0.1, 0.2, -1)

    def test_bound_sequence_monotone_and_converges_to_delta(self):
        seq = lemma1_bound_sequence(q0=5.0, x=0.3, y=0.3, z=0.2, tau_max=2, steps=200)
        assert np.all(np.diff(seq) <= 1e-12)
        assert seq[-1] == pytest.approx(lemma1_residual(0.3, 0.3, 0.2), rel=1e-3)

    def test_bound_sequence_dominates_recursion(self):
        """The bound must upper-bound any sequence satisfying the recursion."""
        x, y, z, tau = 0.4, 0.2, 0.1, 1
        q = [2.0]
        for t in range(1, 60):
            lt = max(0, t - 1 - tau)
            q.append(x * q[t - 1] + y * q[lt] + z)
        bound = lemma1_bound_sequence(q0=2.0, x=x, y=y, z=z, tau_max=tau, steps=59)
        assert np.all(np.asarray(q) <= bound + 1e-9)


class TestTheorem1Rho:
    def test_in_unit_interval(self):
        rho = theorem1_rho(CFG, PSI, BETA, tau_max=2)
        assert 0.0 < rho < 1.0

    def test_rho_increases_with_staleness(self):
        """Corollary 2: larger tau_max means slower contraction."""
        assert theorem1_rho(CFG, PSI, BETA, 5) > theorem1_rho(CFG, PSI, BETA, 0)

    def test_single_group_has_smallest_rho(self):
        single = theorem1_rho(CFG, [1.0], [1.0], 0)
        multi = theorem1_rho(CFG, PSI, BETA, 3)
        assert single < multi

    def test_psi_must_sum_to_one(self):
        with pytest.raises(ValueError):
            theorem1_rho(CFG, [0.3, 0.3], BETA, 0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            theorem1_rho(CFG, PSI, BETA, -1)


class TestTheorem1Delta:
    def test_zero_for_iid_and_noiseless(self):
        """Corollary 1: IID groups (Lambda=0) and no aggregation error give delta=0."""
        delta = theorem1_delta(CFG, PSI, BETA, [0.0, 0.0], c_max=0.0)
        assert delta == pytest.approx(0.0)

    def test_increases_with_emd(self):
        """Corollary 1: more Non-IID (larger Lambda) means larger residual."""
        low = theorem1_delta(CFG, PSI, BETA, [0.1, 0.1], c_max=0.0)
        high = theorem1_delta(CFG, PSI, BETA, [1.5, 1.5], c_max=0.0)
        assert high > low

    def test_increases_with_aggregation_error(self):
        low = theorem1_delta(CFG, PSI, BETA, LAMBDAS, c_max=0.0)
        high = theorem1_delta(CFG, PSI, BETA, LAMBDAS, c_max=1.0)
        assert high > low

    def test_rejects_emd_above_two(self):
        with pytest.raises(ValueError):
            theorem1_delta(CFG, PSI, BETA, [2.5, 0.0], c_max=0.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            theorem1_delta(CFG, PSI, BETA, [0.1], c_max=0.0)

    def test_requires_gamma_above_half_inverse_l(self):
        cfg = ConvergenceConfig(
            smoothness_L=1.0, strong_convexity_mu=0.0, learning_rate_gamma=0.9
        )
        # mu = 0 makes the denominator zero.
        with pytest.raises(ValueError):
            theorem1_delta(cfg, PSI, BETA, LAMBDAS, c_max=0.0)


class TestConvergenceBound:
    def test_evaluate_decreases_with_rounds(self):
        bound = theorem1_bound(CFG, PSI, BETA, LAMBDAS, tau_max=1, c_max=0.01)
        assert bound.evaluate(50) < bound.evaluate(1)

    def test_evaluate_approaches_delta(self):
        bound = theorem1_bound(CFG, PSI, BETA, LAMBDAS, tau_max=1, c_max=0.01)
        assert bound.evaluate(10_000) == pytest.approx(bound.delta, rel=1e-6)

    def test_rounds_to_reach_consistency(self):
        bound = ConvergenceBound(rho=0.9, delta=0.01, initial_gap=1.0)
        t = rounds_to_epsilon(bound.rho, bound.delta, bound.initial_gap, 0.1)
        assert bound.evaluate(int(np.ceil(t))) <= 0.1 + 1e-9

    def test_negative_rounds_rejected(self):
        bound = ConvergenceBound(rho=0.9, delta=0.0, initial_gap=1.0)
        with pytest.raises(ValueError):
            bound.evaluate(-1)


class TestRoundsToEpsilon:
    def test_infeasible_when_delta_exceeds_epsilon(self):
        assert rounds_to_epsilon(0.9, delta=0.5, initial_gap=1.0, epsilon=0.1) == float("inf")

    def test_zero_when_already_converged(self):
        assert rounds_to_epsilon(0.9, delta=0.0, initial_gap=0.01, epsilon=0.5) == 0.0

    def test_matches_closed_form(self):
        t = rounds_to_epsilon(0.5, delta=0.0, initial_gap=1.0, epsilon=0.125)
        assert t == pytest.approx(3.0)

    def test_smaller_rho_needs_fewer_rounds(self):
        fast = rounds_to_epsilon(0.5, 0.0, 1.0, 0.01)
        slow = rounds_to_epsilon(0.95, 0.0, 1.0, 0.01)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            rounds_to_epsilon(1.5, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            rounds_to_epsilon(0.5, -0.1, 1.0, 0.1)


def objective(times, betas=BETA, lambdas=(0.0, 0.0), c_max=0.0):
    """The P4 objective of one grouping's rows of L_j, β_j and Λ_j."""
    problem = GroupingProblem(
        data_sizes=np.ones(1),
        class_counts=np.ones((1, 1)),
        local_times=np.ones(1),
        model_dimension=1,
        config=AirFedGAConfig(convergence=CFG),
        c_max=c_max,
    )
    rows = (np.array([row], dtype=float) for row in (times, betas, lambdas))
    (value,) = _objectives(problem, *rows)
    return value


class TestGroupingObjective:
    """Two groups of 10 s each: round time 5 s, τ̂_max = 1, ψ = (0.5, 0.5)."""

    def test_positive_and_finite_in_feasible_regime(self):
        obj = objective([10.0, 10.0])
        assert np.isfinite(obj) and obj > 0

    def test_scales_with_round_time(self):
        assert objective([20.0, 20.0]) == pytest.approx(2 * objective([10.0, 10.0]))

    def test_penalizes_staleness(self):
        """(6 s, 30 s) keeps the 5 s round time and Σ ψ_j β_j at equal β_j,
        and raises τ̂_max from 1 to 5."""
        betas = (0.5, 0.5)
        assert objective([6.0, 30.0], betas) == pytest.approx(3 * objective([10.0, 10.0], betas))

    def test_penalizes_non_iid_groups(self):
        iid = objective([10.0, 10.0], lambdas=[0.0, 0.0])
        skewed = objective([10.0, 10.0], lambdas=[1.8, 1.8])
        assert skewed > iid

    def test_penalizes_non_iid_even_when_bound_is_vacuous(self):
        """In the surrogate regime (delta >= epsilon) ordering by EMD is preserved."""
        mild = objective([10.0, 10.0], lambdas=[0.8, 0.8])
        severe = objective([10.0, 10.0], lambdas=[1.8, 1.8])
        assert np.isfinite(mild) and np.isfinite(severe)
        assert severe > mild

    def test_validation(self):
        """The objective is reached through a ``GroupingProblem``, which refuses
        a non-positive local time and a negative ``c_max``."""
        with pytest.raises(ValueError, match="positive"):
            GroupingProblem(np.ones(2), np.ones((2, 1)), np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError, match="c_max"):
            GroupingProblem(np.ones(2), np.ones((2, 1)), np.ones(2), 1, c_max=-1.0)
