"""The P4 objective (Eq. 48) as one scalar function: the reference of the
row-batched :func:`repro.core.grouping._objectives`.

:func:`grouping_objective` evaluates ``L · (1 + τ̂_max) · log_B A`` for one
grouping from its round time, staleness estimate, participation
frequencies, group data proportions and label distances, with
:func:`repro.core.convergence.theorem1_delta` for δ.  ``_objectives``
evaluates the same algebra on rows of (L_j, β_j, Λ_j); the tests check the
two agree ``repr`` for ``repr``, and use this one for the objective's
monotonicity properties, where a per-argument call reads best.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.config import ConvergenceConfig
from repro.core.convergence import _weighted_beta, theorem1_delta


def grouping_objective(
    config: ConvergenceConfig,
    round_time: float,
    tau_max: float,
    psi: Sequence[float],
    beta: Sequence[float],
    lambdas: Sequence[float],
    c_max: float,
) -> float:
    """The P2/P4 objective ``L · (1 + τ̂_max) · log_B A``.

    ``A = (ε − δ) / (F(w0) − F(w*))`` and ``B`` is the un-exponentiated
    contraction base.  When δ ≥ ε for every grouping (strong label skew)
    the round count is infinite; ``A`` is then clamped to 1e-3 and the
    value multiplied by ``1 + (δ − ε)/ε``, so candidates stay ranked by
    round time, staleness and skew.  ``A ≥ 1`` (converged by the bound)
    returns the round time alone.
    """
    if round_time <= 0:
        raise ValueError("round_time must be positive")
    if tau_max < 0:
        raise ValueError("tau_max must be non-negative")
    mu, gamma, L = (
        config.strong_convexity_mu,
        config.learning_rate_gamma,
        config.smoothness_L,
    )
    wb = _weighted_beta(psi, beta)
    b = 1.0 - (2.0 * mu * gamma - mu / L) * wb
    if not (0.0 < b < 1.0):
        return float("inf")
    delta = theorem1_delta(config, psi, beta, lambdas, c_max)
    eps = config.target_epsilon
    a_floor = 1e-3
    if delta < eps:
        a = (eps - delta) / config.initial_gap
        if a >= 1.0:
            return round_time
        a = max(a, a_floor)
        penalty = 1.0
    else:
        a = a_floor
        penalty = 1.0 + (delta - eps) / eps
    rounds = math.log(a) / math.log(b)  # = log_B A > 0
    return float(round_time * (1.0 + tau_max) * rounds * penalty)
