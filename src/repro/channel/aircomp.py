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
    "ideal_group_average",
    "ideal_group_average_reference",
    "aggregation_error_term",
    "aircomp_latency",
]


@dataclass
class AirCompResult:
    """Outcome of one over-the-air aggregation.

    Attributes
    ----------
    received:
        The raw received signal ``y_t`` (superposed analog waveform + noise).
    estimate:
        The server-side estimate of the weighted group model,
        ``y_t / (D_j √η_t)`` — i.e. the noisy version of
        ``Σ_i (d_i / D_j) w_i``.
    transmit_powers:
        Per-worker power scaling ``p_i = d_i σ / h_i`` actually used.
    transmit_energies:
        Per-worker transmit energy ``E_i = ||p_i w_i||²`` (Eq. 7).
    noise_norm:
        Euclidean norm of the injected AWGN vector (diagnostics).
    """

    received: np.ndarray
    estimate: np.ndarray
    transmit_powers: np.ndarray
    transmit_energies: np.ndarray
    noise_norm: float


class AirCompWorkspace:
    """Pre-allocated O(q) buffers for the aggregation hot path.

    A trainer owns one workspace and passes it to every
    :func:`aircomp_aggregate` call, so steady-state rounds perform zero
    model-sized allocations.  The buffers are lazily (re)sized on first use
    or when the model dimension / dtype changes.  The arrays stored in the
    returned :class:`AirCompResult` are views of these buffers: they are
    only valid until the next aggregation using the same workspace.
    """

    def __init__(self) -> None:
        self.received: np.ndarray | None = None
        self.estimate: np.ndarray | None = None
        self.noise: np.ndarray | None = None

    def bind(self, dim: int, dtype: np.dtype) -> None:
        if (
            self.received is None
            or self.received.shape != (dim,)
            or self.received.dtype != dtype
        ):
            self.received = np.empty(dim, dtype=dtype)
            self.estimate = np.empty(dim, dtype=dtype)
            self.noise = np.zeros(dim, dtype=dtype)


def _stack_models(models: Sequence[np.ndarray]) -> np.ndarray:
    """Stack per-worker flat vectors into a C-contiguous ``(G, q)`` matrix.

    Accepts either an already-stacked 2-D array (the trainers' hot path —
    no copy) or any sequence of equal-length 1-D vectors.
    """
    if isinstance(models, np.ndarray) and models.ndim == 2:
        stacked = models
    else:
        rows = [np.asarray(m).ravel() for m in models]
        dim = rows[0].size
        if any(r.size != dim for r in rows):
            raise ValueError("all model vectors must have the same dimension")
        stacked = np.stack(rows)
    if stacked.dtype not in (np.float32, np.float64):
        stacked = stacked.astype(np.float64)
    return np.ascontiguousarray(stacked)


def ideal_group_average(
    models: Sequence[np.ndarray],
    data_sizes: Sequence[float],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Error-free data-weighted average of the group's local models.

    This is ``w_t^j = Σ_i (d_i / D_j) w_i`` (Eq. 15), the quantity AirComp
    approximates.  Used as the ground truth in tests and for the "error-free"
    ablation.  Vectorized as a single weighted matmul; pass ``out`` to reuse
    a caller-owned buffer.
    """
    if len(models) == 0:
        raise ValueError("at least one model is required")
    if len(models) != len(data_sizes):
        raise ValueError("models and data_sizes length mismatch")
    sizes = np.asarray(data_sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise ValueError("data sizes must be positive")
    stacked = _stack_models(models)
    weights = (sizes / sizes.sum()).astype(stacked.dtype)
    if out is None:
        return weights @ stacked
    np.dot(weights, stacked, out=out)
    return out


def ideal_group_average_reference(
    models: Sequence[np.ndarray], data_sizes: Sequence[float]
) -> np.ndarray:
    """The seed's per-member accumulation loop, kept as the equivalence and
    benchmark baseline for :func:`ideal_group_average`."""
    if len(models) == 0:
        raise ValueError("at least one model is required")
    if len(models) != len(data_sizes):
        raise ValueError("models and data_sizes length mismatch")
    sizes = np.asarray(data_sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise ValueError("data sizes must be positive")
    total = sizes.sum()
    acc = np.zeros_like(np.asarray(models[0], dtype=np.float64))
    for w, d in zip(models, sizes):
        acc += (d / total) * np.asarray(w, dtype=np.float64)
    return acc


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
    models: Sequence[np.ndarray],
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
        Flat local model vectors ``w_i^t`` of the participating workers —
        either a sequence of 1-D vectors or an already stacked ``(G, q)``
        array (no copy in that case).
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
        given, no O(q) arrays are allocated and the result's ``received`` /
        ``estimate`` are views valid until the workspace is reused.
    sq_norms:
        Optional float64 ``||w_i||²`` per worker, for a caller that already
        took the row-wise squared norms of ``models`` (the trainers do, for
        the model bound); computed here when omitted.

    Returns
    -------
    AirCompResult
        The received signal, the normalized estimate and per-worker energy.
    """
    sizes, gains = _validate_aggregate_args(
        models, data_sizes, channel_gains, sigma_t, eta_t, noise_std
    )
    stacked = _stack_models(models)
    dim = stacked.shape[1]
    dtype = stacked.dtype

    if workspace is None:
        workspace = AirCompWorkspace()
    workspace.bind(dim, dtype)
    received, estimate, noise = workspace.received, workspace.estimate, workspace.noise

    powers = sizes * sigma_t / gains  # Eq. (6)
    # Pre-equalization cancels h_i: the channel applies h_i, the worker
    # transmits p_i * w_i, and the PS receives Σ h_i p_i w_i = Σ d_i σ w_i.
    weights = (sizes * sigma_t).astype(dtype)
    np.dot(weights, stacked, out=received)
    # Eq. (7): E_i = ||p_i w_i||² = p_i² ||w_i||², via one row-wise sumsq.
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", stacked, stacked, dtype=np.float64)
    elif sq_norms.shape != sizes.shape:
        raise ValueError("sq_norms must hold one entry per worker")
    energies = powers**2 * sq_norms

    if noise_std > 0:
        rng.standard_normal(dim, dtype=dtype, out=noise)
        noise *= dtype.type(noise_std)
        received += noise
        noise_norm = float(np.linalg.norm(noise))
    else:
        noise.fill(0.0)
        noise_norm = 0.0

    denom = float(total_data_size) if total_data_size is not None else float(sizes.sum())
    if denom <= 0:
        raise ValueError("total data size must be positive")
    np.divide(received, denom * np.sqrt(eta_t), out=estimate)

    return AirCompResult(
        received=received,
        estimate=estimate,
        transmit_powers=powers,
        transmit_energies=np.asarray(energies, dtype=np.float64),
        noise_norm=noise_norm,
    )


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

    noise = np.zeros(dim, dtype=np.float64)
    if noise_std > 0:
        noise = rng.standard_normal(dim) * noise_std
        received = received + noise

    denom = float(total_data_size) if total_data_size is not None else float(sizes.sum())
    if denom <= 0:
        raise ValueError("total data size must be positive")
    estimate = received / (denom * np.sqrt(eta_t))

    return AirCompResult(
        received=received,
        estimate=estimate,
        transmit_powers=powers,
        transmit_energies=energies,
        noise_norm=float(np.linalg.norm(noise)),
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
