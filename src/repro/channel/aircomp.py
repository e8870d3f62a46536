"""Over-the-air computation (AirComp) over a noisy fading MAC.

Implements the analog aggregation of the paper's Eqs. (6), (9) and (10):

* each participating worker pre-equalizes its transmission with power
  ``p_i^t = d_i σ_t / h_i^t`` (Eq. 6), so the channel attenuation cancels
  and the parameter server receives ``Σ d_i σ_t w_i^t + z_t`` (Eq. 9) where
  ``z_t`` is AWGN with per-entry variance σ₀²;
* the parameter server divides by ``D √η_t`` (η_t is the denoising factor)
  and mixes the result with the previous global model using the group's
  data share (Eq. 10).

The per-round aggregation error term ``C_t = (σ_t/√η_t − 1)² W_t² +
σ₀²/(D_{j_t}² η_t)`` from Eq. (30) is also exposed so that the power-control
module and the convergence-bound utilities can share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AirCompResult",
    "AirCompWorkspace",
    "aircomp_aggregate",
    "aircomp_aggregate_reference",
    "aggregation_error_term",
    "aircomp_latency",
]


@dataclass
class AirCompResult:
    """Outcome of one over-the-air aggregation.

    Attributes
    ----------
    estimate:
        The server-side estimate of the weighted group model,
        ``y_t / (D_j √η_t)`` for the received signal ``y_t`` (Eq. 9) — i.e.
        the noisy version of ``Σ_i (d_i / D_j) w_i``.
    transmit_energies:
        Per-worker transmit energy ``E_i = ||p_i w_i||²`` (Eq. 7).
    """

    estimate: np.ndarray
    transmit_energies: np.ndarray


class AirCompWorkspace:
    """Pre-allocated O(q) buffers for the aggregation hot path.

    A trainer owns one workspace and passes it to every
    :func:`aircomp_aggregate` call, so steady-state rounds perform zero
    model-sized allocations.  The buffers are lazily (re)sized on first use
    or when the model dimension / dtype changes.  The returned
    :attr:`AirCompResult.estimate` is a view of ``estimate``: it is only
    valid until the next aggregation using the same workspace.
    """

    def __init__(self) -> None:
        self.estimate: np.ndarray | None = None
        self.noise: np.ndarray | None = None

    def bind(self, dim: int, dtype: np.dtype) -> None:
        if (
            self.estimate is None
            or self.estimate.shape != (dim,)
            or self.estimate.dtype != dtype
        ):
            self.estimate = np.empty(dim, dtype=dtype)
            self.noise = np.empty(dim, dtype=dtype)


def _validate_aggregate_args(
    models, data_sizes, channel_gains, sigma_t, eta_t, noise_std
) -> tuple:
    if len(models) == 0:
        raise ValueError("at least one worker must participate")
    if not (len(models) == len(data_sizes) == len(channel_gains)):
        raise ValueError("models, data_sizes and channel_gains length mismatch")
    if sigma_t <= 0:
        raise ValueError(f"sigma_t must be positive, got {sigma_t}")
    if eta_t <= 0:
        raise ValueError(f"eta_t must be positive, got {eta_t}")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    sizes = np.asarray(data_sizes, dtype=np.float64)
    gains = np.asarray(channel_gains, dtype=np.float64)
    if sizes.min() <= 0:
        raise ValueError("data sizes must be positive")
    if gains.min() <= 0:
        raise ValueError("channel gains must be positive")
    return sizes, gains


def aircomp_aggregate(
    models: np.ndarray,
    data_sizes: Sequence[float],
    channel_gains: Sequence[float],
    sigma_t: float,
    eta_t: float,
    noise_std: float,
    rng: np.random.Generator,
    total_data_size: float | None = None,
    workspace: AirCompWorkspace | None = None,
    sq_norms: np.ndarray | None = None,
) -> AirCompResult:
    """Simulate one over-the-air aggregation over the noisy fading MAC.

    The superposition ``Σ d_i σ_t w_i`` is computed as a single weighted
    matmul over the stacked ``(G, q)`` model matrix instead of a per-member
    accumulation loop, and per-worker energies come from one row-wise
    squared-norm ``einsum`` — see :func:`aircomp_aggregate_reference` for
    the equivalent (and equivalence-tested) scalar formulation.

    Parameters
    ----------
    models:
        The participating workers' flat local models ``w_i^t``, stacked as
        a 2-D float32 or float64 ``(G, q)`` array (read in place).
    data_sizes:
        Per-worker data sizes ``d_i``.
    channel_gains:
        Per-worker channel gains ``h_i^t`` for this round.
    sigma_t:
        Power scaling factor σ_t (common to the group in this round).
    eta_t:
        Denoising factor η_t at the parameter server.
    noise_std:
        Standard deviation σ₀ of the AWGN per vector entry.
    rng:
        Random generator used to draw the noise vector.
    total_data_size:
        ``D_j`` used for normalisation.  Defaults to ``sum(data_sizes)``
        (the group total); passing the global ``D`` instead reproduces the
        paper's Eq. (10) normalisation before the β_j re-scaling.
    workspace:
        Optional :class:`AirCompWorkspace` of caller-owned buffers; when
        given, no O(q) arrays are allocated and the result's ``estimate``
        is a view valid until the workspace is reused.
    sq_norms:
        Optional float64 ``||w_i||²`` per worker, for a caller that already
        took the row-wise squared norms of ``models`` (the trainers do, for
        the model bound); computed here when omitted.

    Returns
    -------
    AirCompResult
        The normalized estimate and the per-worker energies.
    """
    if not (
        isinstance(models, np.ndarray)
        and models.ndim == 2
        and models.dtype in (np.float32, np.float64)
    ):
        raise ValueError("models must be a 2-D float32 or float64 (G, q) array")
    sizes, gains = _validate_aggregate_args(
        models, data_sizes, channel_gains, sigma_t, eta_t, noise_std
    )
    dim = models.shape[1]
    dtype = models.dtype

    if workspace is None:
        workspace = AirCompWorkspace()
    workspace.bind(dim, dtype)
    estimate, noise = workspace.estimate, workspace.noise

    powers = sizes * sigma_t / gains  # Eq. (6)
    # Pre-equalization cancels h_i: the channel applies h_i, the worker
    # transmits p_i * w_i, and the PS receives Σ h_i p_i w_i = Σ d_i σ w_i.
    weights = (sizes * sigma_t).astype(dtype)
    np.dot(weights, models, out=estimate)
    # Eq. (7): E_i = ||p_i w_i||² = p_i² ||w_i||², via one row-wise sumsq.
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", models, models, dtype=np.float64)
    elif sq_norms.shape != sizes.shape:
        raise ValueError("sq_norms must hold one entry per worker")
    energies = powers**2 * sq_norms

    if noise_std > 0:
        rng.standard_normal(dim, dtype=dtype, out=noise)
        noise *= dtype.type(noise_std)
        estimate += noise

    denom = float(total_data_size) if total_data_size is not None else float(sizes.sum())
    if denom <= 0:
        raise ValueError("total data size must be positive")
    # The received signal y_t (Eq. 9) becomes the estimate in place.
    np.divide(estimate, denom * np.sqrt(eta_t), out=estimate)

    return AirCompResult(estimate=estimate, transmit_energies=energies)


def aircomp_aggregate_reference(
    models: Sequence[np.ndarray],
    data_sizes: Sequence[float],
    channel_gains: Sequence[float],
    sigma_t: float,
    eta_t: float,
    noise_std: float,
    rng: np.random.Generator,
    total_data_size: float | None = None,
) -> AirCompResult:
    """The seed's per-member accumulation loop (one O(q) temporary per
    member), kept as the equivalence and benchmark baseline for
    :func:`aircomp_aggregate`.  Consumes the RNG identically."""
    sizes, gains = _validate_aggregate_args(
        models, data_sizes, channel_gains, sigma_t, eta_t, noise_std
    )
    dim = np.asarray(models[0]).size
    received = np.zeros(dim, dtype=np.float64)
    powers = sizes * sigma_t / gains  # Eq. (6)
    energies = np.empty(len(models), dtype=np.float64)
    for i, w in enumerate(models):
        vec = np.asarray(w, dtype=np.float64).ravel()
        if vec.size != dim:
            raise ValueError("all model vectors must have the same dimension")
        received += sizes[i] * sigma_t * vec
        energies[i] = float(np.sum((powers[i] * vec) ** 2))  # Eq. (7)

    if noise_std > 0:
        received = received + rng.standard_normal(dim) * noise_std

    denom = float(total_data_size) if total_data_size is not None else float(sizes.sum())
    if denom <= 0:
        raise ValueError("total data size must be positive")
    return AirCompResult(
        estimate=received / (denom * np.sqrt(eta_t)),
        transmit_energies=energies,
    )


def aggregation_error_term(
    sigma_t: float,
    eta_t: float,
    model_bound: float,
    noise_var: float,
    group_data_size: float,
) -> float:
    """The per-round error term ``C_t`` of Eq. (30).

    ``C_t = (σ_t/√η_t − 1)² W_t² + σ₀² / (D_{j_t}² η_t)``

    where ``W_t`` bounds the local model norms and ``σ₀²`` is the AWGN
    variance.  Minimizing this over (σ_t, η_t) is the power-control problem
    P3 that Algorithm 2 solves.
    """
    if sigma_t <= 0 or eta_t <= 0:
        raise ValueError("sigma_t and eta_t must be positive")
    if model_bound < 0 or noise_var < 0:
        raise ValueError("model_bound and noise_var must be non-negative")
    if group_data_size <= 0:
        raise ValueError("group_data_size must be positive")
    mismatch = sigma_t / np.sqrt(eta_t) - 1.0
    return float(
        mismatch**2 * model_bound**2 + noise_var / (group_data_size**2 * eta_t)
    )


def aircomp_latency(
    model_dimension: int, num_subchannels: int, symbol_duration: float
) -> float:
    """Model-upload latency of one over-the-air aggregation (Eq. 33).

    ``L_u = (q / R) · L_s`` — the whole group transmits concurrently, so the
    latency depends only on the model dimension ``q``, the number of
    sub-channels ``R`` and the OFDM symbol duration ``L_s``, *not* on the
    number of participating workers.  That independence is exactly what
    gives AirComp its scalability advantage in Fig. 10.
    """
    if not model_dimension > 0:
        raise ValueError("model_dimension must be positive")
    if not num_subchannels > 0:
        raise ValueError("num_subchannels must be positive")
    if not symbol_duration > 0:
        raise ValueError("symbol_duration must be positive")
    return float(np.ceil(model_dimension / num_subchannels) * symbol_duration)
