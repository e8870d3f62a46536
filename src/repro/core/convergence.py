"""Convergence analysis of Air-FedGA (Lemma 1, Theorem 1, Corollaries 1-2).

The unit and property tests verify the inequality structure of these
quantities (the Lemma-1 contraction, monotonicity of ρ in τ_max and of δ in
the EMD values Λ_j).  The P4 objective ``L(x) · (1 + τ̂_max) · log_B A``
(Eq. 48) built from ρ's base and δ is evaluated in one place, on rows of
group quantities: :func:`repro.core.grouping._objectives`, which scores
every grouping Algorithm 3 compares and every strategy's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ConvergenceConfig

__all__ = [
    "lemma1_decay",
    "lemma1_residual",
    "lemma1_bound_sequence",
    "theorem1_rho",
    "theorem1_delta",
    "theorem1_bound",
    "rounds_to_epsilon",
    "ConvergenceBound",
]


# ----------------------------------------------------------------------
# Lemma 1
# ----------------------------------------------------------------------
def lemma1_decay(x: float, y: float, tau_max: int) -> float:
    """ρ = (x + y)^(1 / (1 + τ_max)) from Lemma 1."""
    if x < 0 or y < 0:
        raise ValueError("x and y must be non-negative")
    if x + y >= 1.0:
        raise ValueError("Lemma 1 requires x + y < 1")
    if tau_max < 0:
        raise ValueError("tau_max must be non-negative")
    return float((x + y) ** (1.0 / (1.0 + tau_max)))


def lemma1_residual(x: float, y: float, z: float) -> float:
    """δ = z / (1 − x − y) from Lemma 1."""
    if x < 0 or y < 0 or z < 0:
        raise ValueError("x, y, z must be non-negative")
    if x + y >= 1.0:
        raise ValueError("Lemma 1 requires x + y < 1")
    return float(z / (1.0 - x - y))


def lemma1_bound_sequence(
    q0: float, x: float, y: float, z: float, tau_max: int, steps: int
) -> np.ndarray:
    """The Lemma-1 upper-bound sequence ``ρ^t Q(0) + δ`` for t = 0..steps."""
    if q0 < 0:
        raise ValueError("Q(0) must be non-negative")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rho = lemma1_decay(x, y, tau_max)
    delta = lemma1_residual(x, y, z)
    t = np.arange(steps + 1)
    return rho**t * q0 + delta


# ----------------------------------------------------------------------
# Theorem 1
# ----------------------------------------------------------------------
def _weighted_beta(psi: Sequence[float], beta: Sequence[float]) -> float:
    psi = np.asarray(psi, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if psi.shape != beta.shape:
        raise ValueError("psi and beta must have the same length")
    if psi.size == 0:
        raise ValueError("at least one group required")
    if np.any(psi < 0) or np.any(beta < 0):
        raise ValueError("psi and beta must be non-negative")
    if not math.isclose(float(psi.sum()), 1.0, rel_tol=1e-6, abs_tol=1e-6):
        raise ValueError("participation frequencies psi must sum to 1")
    if np.any(beta > 1.0 + 1e-9):
        raise ValueError("group data proportions beta must be <= 1")
    return float(np.dot(psi, beta))


def theorem1_rho(
    config: ConvergenceConfig,
    psi: Sequence[float],
    beta: Sequence[float],
    tau_max: float,
) -> float:
    """Convergence factor ρ of Theorem 1.

    ``ρ = [1 − (2μγ − μ/L) Σ_j ψ_j β_j]^{1/(1+τ_max)}``.
    """
    if tau_max < 0:
        raise ValueError("tau_max must be non-negative")
    mu, gamma, L = (
        config.strong_convexity_mu,
        config.learning_rate_gamma,
        config.smoothness_L,
    )
    wb = _weighted_beta(psi, beta)
    base = 1.0 - (2.0 * mu * gamma - mu / L) * wb
    if not (0.0 < base < 1.0):
        raise ValueError(
            f"Theorem 1 requires the contraction base in (0,1); got {base} "
            "(check mu, gamma, L and the group proportions)"
        )
    return float(base ** (1.0 / (1.0 + tau_max)))


def theorem1_delta(
    config: ConvergenceConfig,
    psi: Sequence[float],
    beta: Sequence[float],
    lambdas: Sequence[float],
    c_max: float,
) -> float:
    """Residual error δ of Theorem 1.

    ``δ = Σ_j ψ_j β_j (γ L Λ_j² G² + L² C_max) / [(2μγL − μ) Σ_j ψ_j β_j]``.
    """
    psi = np.asarray(psi, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if not (psi.shape == beta.shape == lambdas.shape):
        raise ValueError("psi, beta and lambdas must have the same length")
    if np.any(lambdas < 0) or np.any(lambdas > 2.0 + 1e-9):
        raise ValueError("EMD values must lie in [0, 2]")
    if c_max < 0:
        raise ValueError("c_max must be non-negative")
    mu, gamma, L, G = (
        config.strong_convexity_mu,
        config.learning_rate_gamma,
        config.smoothness_L,
        config.gradient_bound_G,
    )
    wb = _weighted_beta(psi, beta)
    if wb <= 0:
        raise ValueError("sum of psi_j * beta_j must be positive")
    numerator = float(
        np.sum(psi * beta * (gamma * L * lambdas**2 * G**2 + L**2 * c_max))
    )
    denominator = (2.0 * mu * gamma * L - mu) * wb
    if denominator <= 0:
        raise ValueError(
            "Theorem 1 requires 2*mu*gamma*L - mu > 0, i.e. gamma > 1/(2L)"
        )
    return numerator / denominator


@dataclass
class ConvergenceBound:
    """The full Theorem-1 bound ``E[F(w_T)] − F(w*) ≤ ρ^T (F(w0) − F(w*)) + δ``."""

    rho: float
    delta: float
    initial_gap: float

    def evaluate(self, rounds: int) -> float:
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return float(self.rho**rounds * self.initial_gap + self.delta)


def theorem1_bound(
    config: ConvergenceConfig,
    psi: Sequence[float],
    beta: Sequence[float],
    lambdas: Sequence[float],
    tau_max: float,
    c_max: float,
) -> ConvergenceBound:
    """Construct the complete Theorem-1 bound for a grouping."""
    rho = theorem1_rho(config, psi, beta, tau_max)
    delta = theorem1_delta(config, psi, beta, lambdas, c_max)
    return ConvergenceBound(rho=rho, delta=delta, initial_gap=config.initial_gap)


def rounds_to_epsilon(
    rho: float, delta: float, initial_gap: float, epsilon: float
) -> float:
    """Number of rounds T required for ``ρ^T gap + δ ≤ ε`` (Eq. 37/38).

    Returns ``inf`` when the residual δ alone already exceeds ε (the bound
    can then never reach the target) and 0 when the initial gap is already
    within ε.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    if delta < 0 or initial_gap <= 0 or epsilon <= 0:
        raise ValueError("delta >= 0, initial_gap > 0 and epsilon > 0 required")
    if delta >= epsilon:
        return float("inf")
    a = (epsilon - delta) / initial_gap
    if a >= 1.0:
        return 0.0
    return float(math.log(a) / math.log(rho))

