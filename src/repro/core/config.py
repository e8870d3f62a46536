"""Configuration objects shared by the Air-FedGA core algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "AirCompConfig",
    "GroupingConfig",
    "ConvergenceConfig",
    "FaultConfig",
    "AirFedGAConfig",
]


@dataclass
class AirCompConfig:
    """Physical-layer parameters of the over-the-air aggregation.

    Defaults follow Section VI-A2 of the paper: noise variance σ₀² = 1 W and
    a per-round energy budget Ê_i = 10 J (the 1 MHz band is the TDMA
    baseline's, :class:`repro.channel.oma.OMAConfig`).
    """

    noise_variance: float = 1.0
    energy_budget_j: float = 10.0
    num_subchannels: int = 64
    symbol_duration_s: float = 1e-4
    power_control_tolerance: float = 1e-6
    power_control_max_iters: int = 200
    #: Memoize the Algorithm-2 alternating optimization on quantized
    #: ``(gains, sizes, model_bound)`` keys (see
    #: :class:`repro.core.power_control.PowerControlCache`).  Cached σ is
    #: re-clamped to the *exact* energy-budget cap of the current round, so
    #: budgets are never violated by the quantization.
    power_control_cache: bool = True

    def __post_init__(self) -> None:
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")
        if self.energy_budget_j <= 0:
            raise ValueError("energy_budget_j must be positive")
        if self.num_subchannels <= 0:
            raise ValueError("num_subchannels must be positive")
        if self.symbol_duration_s <= 0:
            raise ValueError("symbol_duration_s must be positive")
        if self.power_control_tolerance <= 0:
            raise ValueError("power_control_tolerance must be positive")
        if self.power_control_max_iters < 1:
            raise ValueError("power_control_max_iters must be >= 1")


@dataclass
class GroupingConfig:
    """Parameters of the worker-grouping algorithm (Alg. 3).

    ``xi`` is the intra-group training-time similarity slack ξ of constraint
    (36d); the paper finds ξ = 0.3 to be a good operating point (Fig. 8).
    """

    xi: float = 0.3
    sort_descending_by_data: bool = True
    #: Seed for breaking data-size ties in the greedy visit order (see
    #: :func:`repro.core.grouping.greedy_grouping`).
    tie_break_seed: int = 0
    #: Number of local-search refinement passes applied after the greedy
    #: assignment (0 recovers the paper's single-pass Algorithm 3).
    refine_passes: int = 3

    def __post_init__(self) -> None:
        if self.xi < 0:
            raise ValueError("xi must be non-negative")
        if self.tie_break_seed < 0:
            raise ValueError("tie_break_seed must be non-negative")
        if self.refine_passes < 0:
            raise ValueError("refine_passes must be non-negative")


@dataclass
class ConvergenceConfig:
    """Constants appearing in the Theorem-1 bound.

    These are the smoothness ``L``, strong-convexity ``μ``, gradient bound
    ``G`` and initial optimality gap ``F(w0) − F(w*)`` used when evaluating
    the theoretical objective of P2.  They act as *relative* weights in the
    grouping objective; the defaults are the canonical unit-scale choices
    used throughout the FL-analysis literature.
    """

    smoothness_L: float = 1.0
    strong_convexity_mu: float = 0.5
    learning_rate_gamma: float = 0.9
    gradient_bound_G: float = 1.0
    initial_gap: float = 1.0
    target_epsilon: float = 0.05

    def __post_init__(self) -> None:
        if self.smoothness_L <= 0:
            raise ValueError("smoothness_L must be positive")
        if self.strong_convexity_mu < 0:
            raise ValueError("strong_convexity_mu must be non-negative")
        if self.strong_convexity_mu > self.smoothness_L:
            raise ValueError("mu cannot exceed L")
        if not (0 < self.learning_rate_gamma):
            raise ValueError("learning_rate_gamma must be positive")
        lo, hi = 1.0 / (2 * self.smoothness_L), 1.0 / self.smoothness_L
        if not (lo < self.learning_rate_gamma < hi):
            raise ValueError(
                f"Theorem 1 requires 1/(2L) < gamma < 1/L, i.e. gamma in "
                f"({lo}, {hi}); got {self.learning_rate_gamma}"
            )
        if self.gradient_bound_G <= 0:
            raise ValueError("gradient_bound_G must be positive")
        if self.initial_gap <= 0:
            raise ValueError("initial_gap must be positive")
        if self.target_epsilon <= 0:
            raise ValueError("target_epsilon must be positive")


@dataclass
class FaultConfig:
    """Group-level policy for device faults (see :mod:`repro.sim.clientstate`).

    The client-state model decides *which* workers are unavailable, drop
    mid-round or return partial work; this config decides what the grouped
    event loop does about it.  A group round proceeds only while at least
    ``ceil(quorum_fraction · group_size)`` members (always at least one)
    are present; below quorum the round is retried with a virtual-time
    backoff up to ``max_retries`` times, after which it is recorded as a
    quorum *skip* and the group simply starts its next local round.  A
    group that fails ``max_consecutive_failures`` quorum checks in a row
    is parked — removed from the event loop — so a fully dead group cannot
    spin the simulation forever.
    """

    #: Minimum fraction of the group that must be present for a round to
    #: count (applied to the dispatch roster and again to the mid-round
    #: survivors).  The effective quorum is ``max(1, ceil(fraction·size))``.
    quorum_fraction: float = 0.5
    #: Below-quorum rounds are retried this many times (with backoff)
    #: before being recorded as a skip.  0 means "skip immediately".
    max_retries: int = 2
    #: Simulated seconds added before a retried dispatch.
    retry_backoff: float = 1.0
    #: Scale the surviving members' aggregation weights so they carry the
    #: full group's data mass (``Σα_members / Σα_survivors``); off, the
    #: lost mass falls back onto the previous global model via Eq. (10).
    renormalize_survivors: bool = True
    #: Park a group (drop it from the event loop) after this many
    #: consecutive failed quorum checks — the infinite-retry guard for
    #: groups whose members never come back.
    max_consecutive_failures: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError(
                f"quorum_fraction must be in (0, 1], got {self.quorum_fraction}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")


@dataclass
class AirFedGAConfig:
    """Top-level configuration bundling the core-algorithm settings."""

    aircomp: AirCompConfig = field(default_factory=AirCompConfig)
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    convergence: ConvergenceConfig = field(default_factory=ConvergenceConfig)
    #: Floating dtype of the simulation ("float64" or "float32").  float64
    #: is the bit-exact reference mode; float32 halves the memory bandwidth
    #: of the O(q) model/aggregation hot paths for large sweeps at ~1e-7
    #: relative rounding per operation (see docs/PERFORMANCE.md).
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )
