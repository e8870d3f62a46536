"""Training-time model of Section V-A (Eqs. 33-35 and 39).

These closed-form estimates drive problem P2/P4 and the greedy grouping
algorithm:

* ``L_u = (q / R) · L_s`` — model-upload latency of one over-the-air
  aggregation (Eq. 33), independent of how many workers transmit.
* ``L_j = max_{v_i ∈ V_j} l_i + L_u`` — completion time of group ``j``
  (Eq. 34): the group waits for its slowest member, then uploads.
* ``L ≈ 1 / Σ_j (1 / L_j)`` — average duration of one *global* round when
  groups participate asynchronously (Eq. 35): the global-update rate is the
  sum of the per-group rates.
* ``ψ_j = (1/L_j) / Σ_{j'} (1/L_{j'})`` — relative participation frequency
  of group ``j`` (used in Theorem 1 and the objective of P2).
* ``τ̂_max = L_max · Σ_j (1/L_j)`` — estimate of the maximum staleness
  (Eq. 39): while the slowest group completes one round, the whole system
  performs roughly this many global updates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "group_completion_time",
    "average_round_time",
    "participation_frequencies",
    "estimated_max_staleness",
    "expected_dispatch_attempts",
    "faulty_group_completion_time",
]


def group_completion_time(
    local_times: Sequence[float], upload_latency: float
) -> float:
    """``L_j = max_i l_i + L_u`` for one group (Eq. 34)."""
    times = np.asarray(local_times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("group must contain at least one worker")
    if np.any(times <= 0):
        raise ValueError("local training times must be positive")
    if upload_latency < 0:
        raise ValueError("upload latency must be non-negative")
    return float(times.max() + upload_latency)


def average_round_time(group_times: Sequence[float]) -> float:
    """``L ≈ 1 / Σ_j 1/L_j`` (Eq. 35): harmonic combination of group rates."""
    times = np.asarray(group_times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("at least one group required")
    if np.any(times <= 0):
        raise ValueError("group completion times must be positive")
    return float(1.0 / np.sum(1.0 / times))


def participation_frequencies(group_times: Sequence[float]) -> np.ndarray:
    """``ψ_j ∝ 1/L_j`` normalized to sum to one."""
    times = np.asarray(group_times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("at least one group required")
    if np.any(times <= 0):
        raise ValueError("group completion times must be positive")
    rates = 1.0 / times
    return rates / rates.sum()


def estimated_max_staleness(group_times: Sequence[float]) -> float:
    """``τ̂_max = L_max · Σ_j 1/L_j`` (Eq. 39).

    With a single group this evaluates to 1 global update per group round,
    i.e. staleness ≈ 1·L_max/L_max = 1; the paper's convention has
    ``τ_max = 0`` for M = 1, so callers using the Theorem-1 exponent should
    subtract the self-update, as
    :attr:`repro.core.grouping.GroupingResult.tau_max_estimate` does.
    """
    times = np.asarray(group_times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("at least one group required")
    if np.any(times <= 0):
        raise ValueError("group completion times must be positive")
    return float(times.max() * np.sum(1.0 / times))


def _quorum_probability(
    group_size: int, availability: float, quorum_fraction: float
) -> float:
    """``P(Binomial(n, p) >= ceil(q·n))`` — one dispatch meets quorum."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if not 0.0 <= availability <= 1.0:
        raise ValueError("availability must be in [0, 1]")
    if not 0.0 < quorum_fraction <= 1.0:
        raise ValueError("quorum_fraction must be in (0, 1]")
    quorum = max(1, int(np.ceil(quorum_fraction * group_size)))
    if availability >= 1.0:
        return 1.0
    if availability <= 0.0:
        return 0.0
    k = np.arange(quorum, group_size + 1, dtype=np.float64)
    # Binomial tail via log-pmf for numerical robustness at large groups.
    from math import lgamma

    log_choose = np.array(
        [
            lgamma(group_size + 1) - lgamma(int(i) + 1) - lgamma(group_size - int(i) + 1)
            for i in k
        ]
    )
    terms = (
        log_choose
        + k * np.log(availability)
        + (group_size - k) * np.log1p(-availability)
    )
    return float(np.clip(np.exp(terms).sum(), 0.0, 1.0))


def expected_dispatch_attempts(
    group_size: int, availability: float, quorum_fraction: float = 0.5
) -> float:
    """Expected dispatches until a group meets quorum under Bernoulli faults.

    With i.i.d. per-dispatch availability ``p`` (the ``"bernoulli"``
    client-state model), each dispatch independently meets the
    ``ceil(q·n)`` quorum with probability ``P_q``; attempts are geometric,
    so the expectation is ``1 / P_q``.  Returns ``inf`` when quorum can
    never be met (``p = 0`` with a non-trivial quorum).
    """
    p_quorum = _quorum_probability(group_size, availability, quorum_fraction)
    if p_quorum <= 0.0:
        return float("inf")
    return 1.0 / p_quorum


def faulty_group_completion_time(
    local_times: Sequence[float],
    upload_latency: float,
    availability: float = 1.0,
    quorum_fraction: float = 0.5,
    retry_backoff: float = 1.0,
) -> float:
    """Expected ``L_j`` (Eq. 34) inflated by availability-induced retries.

    Each failed quorum check delays the group by ``retry_backoff``
    simulated seconds before its next dispatch, so the expected completion
    time becomes ``L_j + (E[attempts] − 1) · backoff``.  With
    ``availability = 1`` this reduces exactly to
    :func:`group_completion_time`.
    """
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be non-negative")
    base = group_completion_time(local_times, upload_latency)
    attempts = expected_dispatch_attempts(
        len(list(local_times)), availability, quorum_fraction
    )
    if not np.isfinite(attempts):
        return float("inf")
    return float(base + (attempts - 1.0) * retry_backoff)
