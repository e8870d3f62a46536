"""Property-based tests for the core algorithms (convergence, power control, protocol)."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.channel import aggregation_error_term
from repro.core import (
    AirCompConfig,
    ConvergenceConfig,
    GroupAsyncScheduler,
    lemma1_decay,
    lemma1_residual,
    rounds_to_epsilon,
    solve_power_control,
    theorem1_delta,
    theorem1_rho,
)


class TestLemma1Properties:
    @given(
        x=st.floats(0.0, 0.95, allow_nan=False),
        y=st.floats(0.0, 0.95, allow_nan=False),
        z=st.floats(0.0, 10.0, allow_nan=False),
        tau=st.integers(0, 20),
        q0=st.floats(0.0, 100.0, allow_nan=False),
        steps=st.integers(1, 80),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_dominates_recursion(self, x, y, z, tau, q0, steps):
        """ρ^t Q(0) + δ upper-bounds any sequence with Q(t) ≤ xQ(t-1)+yQ(l_t)+z."""
        assume(x + y < 0.999)
        rho = lemma1_decay(x, y, tau)
        delta = lemma1_residual(x, y, z)
        q = [q0]
        rng = np.random.default_rng(0)
        for t in range(1, steps + 1):
            lt = int(rng.integers(max(0, t - 1 - tau), t))
            q.append(x * q[t - 1] + y * q[lt] + z)
        bound = [rho**t * q0 + delta for t in range(steps + 1)]
        assert all(qi <= bi + 1e-7 * max(1.0, abs(bi)) for qi, bi in zip(q, bound))

    @given(
        x=st.floats(0.0, 0.9, allow_nan=False),
        y=st.floats(0.0, 0.9, allow_nan=False),
        tau_small=st.integers(0, 5),
        tau_big=st.integers(6, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_decay_monotone_in_staleness(self, x, y, tau_small, tau_big):
        assume(0 < x + y < 0.999)
        assert lemma1_decay(x, y, tau_big) >= lemma1_decay(x, y, tau_small)


@st.composite
def group_structure(draw, max_groups=5):
    m = draw(st.integers(1, max_groups))
    raw_psi = [draw(st.floats(0.05, 1.0)) for _ in range(m)]
    psi = np.array(raw_psi) / np.sum(raw_psi)
    beta_raw = [draw(st.floats(0.05, 1.0)) for _ in range(m)]
    beta = np.array(beta_raw) / np.sum(beta_raw)
    lambdas = np.array([draw(st.floats(0.0, 1.8)) for _ in range(m)])
    return psi, beta, lambdas


class TestTheorem1Properties:
    @given(groups=group_structure(), tau=st.floats(0.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_rho_in_unit_interval(self, groups, tau):
        psi, beta, _ = groups
        cfg = ConvergenceConfig()
        rho = theorem1_rho(cfg, psi, beta, tau)
        assert 0.0 < rho < 1.0

    @given(groups=group_structure(), c=st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_delta_nonnegative_and_monotone_in_c(self, groups, c):
        psi, beta, lambdas = groups
        cfg = ConvergenceConfig()
        d0 = theorem1_delta(cfg, psi, beta, lambdas, 0.0)
        d1 = theorem1_delta(cfg, psi, beta, lambdas, c)
        assert d0 >= 0.0
        assert d1 >= d0 - 1e-12

    @given(groups=group_structure(), scale=st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_delta_monotone_in_emd(self, groups, scale):
        """Corollary 1: uniformly shrinking every Λ_j cannot increase δ."""
        psi, beta, lambdas = groups
        cfg = ConvergenceConfig()
        full = theorem1_delta(cfg, psi, beta, lambdas, 0.1)
        shrunk = theorem1_delta(cfg, psi, beta, lambdas * scale, 0.1)
        assert shrunk <= full + 1e-12

    @given(
        rho=st.floats(0.05, 0.99, exclude_max=True),
        delta=st.floats(0.0, 0.04),
        gap=st.floats(0.1, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_rounds_to_epsilon_achieves_target(self, rho, delta, gap):
        eps = 0.05
        t = rounds_to_epsilon(rho, delta, gap, eps)
        if t != float("inf"):
            t_int = int(np.ceil(t))
            assert rho**t_int * gap + delta <= eps + 1e-9


class TestPowerControlProperties:
    @given(
        sizes=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=6),
        data=st.data(),
        budget=st.floats(0.1, 100.0),
        noise=st.floats(1e-6, 1.0),
        bound=st.floats(0.1, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_solution_feasible_and_not_worse_than_naive(
        self, sizes, data, budget, noise, bound
    ):
        gains = [data.draw(st.floats(0.1, 10.0)) for _ in sizes]
        cfg = AirCompConfig(noise_variance=noise, energy_budget_j=budget)
        result = solve_power_control(sizes, gains, bound, cfg)
        # Feasibility: sigma never exceeds the energy cap.
        assert result.sigma <= result.sigma_cap * (1 + 1e-9)
        assert result.sigma > 0 and result.eta > 0
        # Optimality sanity: not worse than transmitting at the cap with eta=1.
        group = float(np.sum(sizes))
        naive = aggregation_error_term(result.sigma_cap, 1.0, bound, noise, group)
        assert result.error_term <= naive + 1e-9


class TestSchedulerProperties:
    @given(
        group_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        data=st.data(),
        rounds=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_staleness_bounded_by_rounds_between_participations(
        self, group_sizes, data, rounds
    ):
        """Invariants: round counter equals number of aggregations; the
        staleness of an aggregation never exceeds the number of global rounds
        performed since that group last participated (and is 0 on first use)."""
        groups = []
        next_id = 0
        for size in group_sizes:
            groups.append(list(range(next_id, next_id + size)))
            next_id += size
        sched = GroupAsyncScheduler(groups)
        last_participation = {g: 0 for g in range(len(groups))}
        events = []
        for _ in range(rounds):
            gid = data.draw(st.integers(0, len(groups) - 1))
            for w in groups[gid]:
                sched.receive_ready(w)
            event = sched.complete_aggregation(gid)
            events.append(event)
            expected_staleness = max(0, event.round_index - last_participation[gid] - 1)
            assert event.staleness == expected_staleness
            last_participation[gid] = event.round_index
        assert sched.current_round == rounds
        assert [e.round_index for e in events] == list(range(1, rounds + 1))
