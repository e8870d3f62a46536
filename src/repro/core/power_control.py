"""Power control via alternating optimization (Algorithm 2).

Problem P3 of the paper: choose the power scaling factor σ_t (common to the
participating group) and the denoising factor η_t (at the parameter server)
to minimize the per-round aggregation-error term

    C_t = (σ_t / √η_t − 1)² W_t²  +  σ₀² / (D_{j_t}² η_t)        (Eq. 30)

subject to the per-worker energy budgets ``E_i^t ≤ Ê_i`` which translate to
``σ_t ≤ h_i √Ê_i / (d_i W_t)`` for every participating worker (Eq. 46).

Algorithm 2 alternates two closed-form updates until convergence:

* given σ_t, the optimal denoising factor is
  ``η_t = [(σ_t² W_t² + σ₀²/D_j²) / (σ_t W_t²)]²``           (Eq. 44)
* given η_t, the optimal feasible scaling factor is
  ``σ_t = min( √η_t , min_i h_i √Ê_i / (d_i W_t) )``          (Eq. 47)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

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
    """Outcome of the alternating optimization for one round.

    Attributes
    ----------
    sigma:
        Converged power scaling factor σ_t*.
    eta:
        Converged denoising factor η_t*.
    error_term:
        The minimized C_t value.
    iterations:
        Number of alternating iterations performed.
    converged:
        Whether the relative-change stopping criterion was met before the
        iteration cap.
    sigma_cap:
        The energy-budget upper bound on σ_t (min over workers of Eq. 46).
    history:
        Per-iteration (σ, η, C) triples for diagnostics and tests.
    """

    sigma: float
    eta: float
    error_term: float
    iterations: int
    converged: bool
    sigma_cap: float
    history: List[tuple]


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


def _sigma_cap(
    sizes: np.ndarray, gains: np.ndarray, model_bound: float, energy_budget: float
) -> float:
    """``min_i h_i √Ê / (d_i W_t)``: the largest σ every worker affords (Eq. 46)."""
    return float((gains * np.sqrt(energy_budget) / (sizes * model_bound)).min())


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
        Physical-layer configuration (noise variance, the per-worker budget
        ``Ê``, tolerances).  The alternation starts from the energy-budget
        cap, the largest feasible σ.
    """
    sizes = np.asarray(data_sizes, dtype=np.float64)
    gains = np.asarray(channel_gains, dtype=np.float64)
    if sizes.shape != gains.shape or sizes.size == 0:
        raise ValueError("data_sizes and channel_gains must be non-empty and aligned")
    if np.any(sizes <= 0) or np.any(gains <= 0):
        raise ValueError("data sizes and channel gains must be positive")
    if model_bound <= 0:
        raise ValueError("model_bound must be positive")

    group_size = float(sizes.sum())
    noise_var = config.noise_variance
    sigma_cap = _sigma_cap(sizes, gains, model_bound, config.energy_budget_j)
    sigma = sigma_cap
    eta = optimal_eta(sigma, model_bound, noise_var, group_size)

    history: List[tuple] = []
    converged = False
    iterations = 0
    for iterations in range(1, config.power_control_max_iters + 1):
        prev_sigma, prev_eta = sigma, eta
        eta = optimal_eta(sigma, model_bound, noise_var, group_size)
        # Eq. 47: the unconstrained optimum √η, clipped to the cap.
        sigma = float(min(np.sqrt(eta), sigma_cap))
        c = aggregation_error_term(sigma, eta, model_bound, noise_var, group_size)
        history.append((sigma, eta, c))
        rel_sigma = abs(sigma - prev_sigma) / max(abs(sigma), 1e-300)
        rel_eta = abs(eta - prev_eta) / max(abs(eta), 1e-300)
        if rel_sigma <= config.power_control_tolerance and rel_eta <= config.power_control_tolerance:
            converged = True
            break

    error = aggregation_error_term(sigma, eta, model_bound, noise_var, group_size)
    return PowerControlResult(
        sigma=float(sigma),
        eta=float(eta),
        error_term=float(error),
        iterations=iterations,
        converged=converged,
        sigma_cap=sigma_cap,
        history=history,
    )


class PowerControlCache:
    """Memoization wrapper around :func:`solve_power_control`.

    Re-running Algorithm 2 from scratch at every aggregation is wasteful
    under static channels and stable bounds, where successive rounds of the
    same group pose *identical* (or near-identical) P3 instances: the
    solution is looked up on a quantized ``(gains, sizes, model_bound)``
    key.  A miss always runs the paper's from-cap Algorithm 2 — the
    alternation can converge to a different fixed point from a different
    start, so the cache never seeds it with an earlier σ.

    The model bound is quantized to ``rel_tol`` relative precision when
    forming keys (a hit may therefore reuse a (σ, η) pair solved for a
    bound up to that relative distance away); gains and data sizes are
    hashed exactly.  On a hit the cached σ is clamped to the *exact*
    energy-budget cap of the current inputs (Eq. 46), so the quantization
    can never cause a budget violation.
    """

    def __init__(self, rel_tol: float = 1e-3, max_entries: int = 4096) -> None:
        if rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.rel_tol = rel_tol
        self._log_step = np.log1p(rel_tol)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._cache: Dict[Tuple, PowerControlResult] = {}

    # ------------------------------------------------------------------
    def _quantize_bound(self, model_bound: float) -> float:
        """Snap the bound onto a relative grid of spacing ``rel_tol``."""
        step = self._log_step
        return float(np.exp(np.round(np.log(model_bound) / step) * step))

    def solve(
        self,
        data_sizes: Sequence[float],
        channel_gains: Sequence[float],
        model_bound: float,
        config: AirCompConfig,
    ) -> PowerControlResult:
        """Cached equivalent of :func:`solve_power_control`."""
        sizes = np.ascontiguousarray(data_sizes, dtype=np.float64)
        gains = np.ascontiguousarray(channel_gains, dtype=np.float64)
        key = (
            sizes.tobytes(),
            gains.tobytes(),
            self._quantize_bound(model_bound),
            config.noise_variance,
            config.energy_budget_j,
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            # Clamp to the exact cap for *this* round's bound (Eq. 46).
            sigma_cap = _sigma_cap(sizes, gains, model_bound, config.energy_budget_j)
            if cached.sigma <= sigma_cap:
                return cached
            # Re-pair the clamped σ with its own optimal η (Eq. 44) so the
            # denoising scale stays consistent with the transmitted power.
            group_size = float(sizes.sum())
            eta = optimal_eta(sigma_cap, model_bound, config.noise_variance, group_size)
            error = aggregation_error_term(
                sigma_cap, eta, model_bound, config.noise_variance, group_size
            )
            return replace(
                cached,
                sigma=sigma_cap,
                eta=eta,
                error_term=error,
                sigma_cap=sigma_cap,
            )
        self.misses += 1
        result = solve_power_control(
            data_sizes=sizes,
            channel_gains=gains,
            model_bound=model_bound,
            config=config,
        )
        if len(self._cache) >= self.max_entries:
            # Simple wholesale reset: the cache is an optimization, not a
            # correctness structure, and resets are rare at this size.
            self._cache.clear()
        self._cache[key] = result
        return result
