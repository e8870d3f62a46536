"""Algorithm 2 as the paper states it: the reference of the closed form.

:func:`alternate` is the alternating optimization of the paper's power
control (P3): from a start σ (the energy cap of Eq. 46 unless given), it
repeats Eq. (44), η = η(σ), and Eq. (47), σ = min(√η, σ_cap), until both
change by at most ``tolerance`` relative, or for ``max_iters`` steps.
:func:`repro.core.power_control.solve_power_control` is its first step from
the cap, which is where it stops; ``tests/oracle/test_power_control.py``
checks the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.aircomp import aggregation_error_term
from repro.core.config import AirCompConfig
from repro.core.power_control import optimal_eta


def sigma_cap_one_pass(
    sizes: np.ndarray, gains: np.ndarray, model_bound: float, energy_budget: float
) -> float:
    """Eq. (46) over all workers in one expression: the reference of the
    blocked :func:`repro.core.power_control._sigma_cap`."""
    return float((gains * np.sqrt(energy_budget) / (sizes * model_bound)).min())


@dataclass
class Alternation:
    """Where the alternation stopped, and the (σ, η, C) of every step."""

    sigma: float
    eta: float
    error_term: float
    iterations: int
    converged: bool
    sigma_cap: float
    history: List[Tuple[float, float, float]]


def alternate(
    data_sizes: Sequence[float],
    channel_gains: Sequence[float],
    model_bound: float,
    config: AirCompConfig,
    tolerance: float = 1e-6,
    max_iters: int = 200,
    sigma_start: Optional[float] = None,
) -> Alternation:
    """Alternate Eq. (44) and Eq. (47) from ``sigma_start`` (default: the cap)."""
    sizes = np.asarray(data_sizes, dtype=np.float64)
    gains = np.asarray(channel_gains, dtype=np.float64)
    group_size = float(sizes.sum())
    noise_var = config.noise_variance
    sigma_cap = sigma_cap_one_pass(sizes, gains, model_bound, config.energy_budget_j)
    sigma = sigma_cap if sigma_start is None else min(sigma_start, sigma_cap)
    eta = optimal_eta(sigma, model_bound, noise_var, group_size)

    history: List[Tuple[float, float, float]] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        prev_sigma, prev_eta = sigma, eta
        eta = optimal_eta(sigma, model_bound, noise_var, group_size)
        sigma = float(min(np.sqrt(eta), sigma_cap))
        c = aggregation_error_term(sigma, eta, model_bound, noise_var, group_size)
        history.append((sigma, eta, c))
        rel_sigma = abs(sigma - prev_sigma) / max(abs(sigma), 1e-300)
        rel_eta = abs(eta - prev_eta) / max(abs(eta), 1e-300)
        if rel_sigma <= tolerance and rel_eta <= tolerance:
            converged = True
            break

    error = aggregation_error_term(sigma, eta, model_bound, noise_var, group_size)
    return Alternation(
        sigma=float(sigma),
        eta=float(eta),
        error_term=float(error),
        iterations=iterations,
        converged=converged,
        sigma_cap=sigma_cap,
        history=history,
    )
