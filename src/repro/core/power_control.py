"""Power control for one aggregation (Algorithm 2) as one closed-form step.

Problem P3 of the paper: choose the power scaling factor σ_t (common to the
participating group) and the denoising factor η_t (at the parameter server)
to minimize the per-round aggregation-error term

    C_t = (σ_t / √η_t − 1)² W_t²  +  σ₀² / (D_{j_t}² η_t)        (Eq. 30)

subject to the per-worker energy budgets ``E_i^t ≤ Ê_i`` which translate to
``σ_t ≤ σ_cap = min_i h_i √Ê_i / (d_i W_t)`` (Eq. 46).

Algorithm 2 alternates two closed-form updates:

* given σ_t, the optimal denoising factor is
  ``η_t = [(σ_t² W_t² + n) / (σ_t W_t²)]²``,  n = σ₀²/D_j²   (Eq. 44)
* given η_t, the optimal feasible scaling factor is
  ``σ_t = min( √η_t , σ_cap )``                               (Eq. 47)

The alternation has nothing to alternate.  Putting Eq. (44) into Eq. (30)
gives ``C*(σ) = n W² / (σ² W² + n)``, which falls strictly as σ grows, so
the optimum is the cap: σ* = σ_cap and η* = η(σ_cap).  From σ = σ_cap,
Eq. (44) gives ``√η = σ + n / (σ W²) ≥ σ``, so Eq. (47) returns the cap and
the paper's loop stops after its first step.  :func:`solve_power_control`
is that step: η from the cap, then Eq. (47) once.  It keeps Eq. (47)'s
``min`` rather than returning σ_cap itself: with σ₀² = 0 (or a noise term
below one ULP of σ), √η can round one ULP below σ_cap, and the ``min`` keeps
σ, η and C_t bit for bit those of the loop (``tests/oracle/power_control.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..channel.aircomp import aggregation_error_term
from .config import AirCompConfig

__all__ = [
    "PowerControlResult",
    "PowerControlCache",
    "optimal_eta",
    "solve_power_control",
]


@dataclass
class PowerControlResult:
    """Outcome of Algorithm 2 for one round.

    Attributes
    ----------
    sigma:
        Power scaling factor σ_t*.
    eta:
        Denoising factor η_t*.
    error_term:
        The minimized C_t value.
    iterations:
        Always 1: the one step of Eq. (44) and Eq. (47).  It stays while the
        benchmark harness tags its ``solve_power_control`` spans with it.
    sigma_cap:
        The energy-budget upper bound on σ_t (min over workers of Eq. 46).
    """

    sigma: float
    eta: float
    error_term: float
    iterations: int
    sigma_cap: float


def optimal_eta(
    sigma: float, model_bound: float, noise_var: float, group_data_size: float
) -> float:
    """Closed-form η minimizing C_t for a fixed σ (Eq. 44)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if model_bound <= 0:
        raise ValueError("model_bound must be positive")
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    if group_data_size <= 0:
        raise ValueError("group_data_size must be positive")
    numerator = sigma**2 * model_bound**2 + noise_var / group_data_size**2
    return float((numerator / (sigma * model_bound**2)) ** 2)


_BLOCK = 1 << 16  # workers per slice of _sigma_cap's min (bounds its scratch)


def _sigma_cap(
    sizes: np.ndarray, gains: np.ndarray, model_bound: float, energy_budget: float
) -> float:
    """``min_i h_i √Ê / (d_i W_t)``: the largest σ every worker affords (Eq. 46),
    over slices of ``_BLOCK`` workers; each term keeps its operation order."""
    return float(np.min([
        (gains[i : i + _BLOCK] * np.sqrt(energy_budget) / (sizes[i : i + _BLOCK] * model_bound))
        .min() for i in range(0, sizes.size, _BLOCK)
    ]))  # fmt: skip


def solve_power_control(
    data_sizes: Sequence[float],
    channel_gains: Sequence[float],
    model_bound: float,
    config: AirCompConfig,
) -> PowerControlResult:
    """Run Algorithm 2 for one round / one participating group.

    Parameters
    ----------
    data_sizes:
        ``d_i`` for the participating workers.
    channel_gains:
        ``h_i^t`` for the participating workers this round.
    model_bound:
        ``W_t`` — an upper bound on the local model norms (the trainers pass
        the current global-model norm, which tracks it closely).
    config:
        Physical-layer configuration: the noise variance and the
        per-worker budget ``Ê``.
    """
    sizes = np.asarray(data_sizes, dtype=np.float64)
    gains = np.asarray(channel_gains, dtype=np.float64)
    if sizes.shape != gains.shape or sizes.size == 0:
        raise ValueError("data_sizes and channel_gains must be non-empty and aligned")
    if not (sizes.min() > 0 and gains.min() > 0):
        raise ValueError("data sizes and channel gains must be positive")
    if model_bound <= 0:
        raise ValueError("model_bound must be positive")

    group_size = float(sizes.sum())
    noise_var = config.noise_variance
    sigma_cap = _sigma_cap(sizes, gains, model_bound, config.energy_budget_j)
    eta = optimal_eta(sigma_cap, model_bound, noise_var, group_size)
    # Eq. 47: the unconstrained optimum √η, clipped to the cap.
    sigma = float(min(np.sqrt(eta), sigma_cap))
    error = aggregation_error_term(sigma, eta, model_bound, noise_var, group_size)
    return PowerControlResult(
        sigma=sigma,
        eta=eta,
        error_term=float(error),
        iterations=1,
        sigma_cap=sigma_cap,
    )


class PowerControlCache:
    """Counts the solves of :func:`solve_power_control`; it memoises nothing.

    Every aggregation solves its own inputs: a quantised key would hand a
    round the σ and η of another bound, and the closed form costs what a key
    costs.  ``hits`` stays 0; the class and its counters stay only while the
    benchmark harness reads them (ROADMAP item 5).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def solve(
        self,
        data_sizes: Sequence[float],
        channel_gains: Sequence[float],
        model_bound: float,
        config: AirCompConfig,
    ) -> PowerControlResult:
        """:func:`solve_power_control`, counted as a miss."""
        self.misses += 1
        return solve_power_control(data_sizes, channel_gains, model_bound, config)
