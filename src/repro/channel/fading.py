"""Block-fading wireless channel gain models.

The paper assumes each worker ``v_i`` has a channel gain ``h_i^t`` to the
parameter server that remains constant within a communication round (block
fading) and varies across rounds.  We provide the two standard models used
in the AirComp-FL literature:

* **Rayleigh fading** — the gain magnitude is Rayleigh distributed,
  ``h = |g|`` with ``g ~ CN(0, h̄²)``; this is the default.
* **Static gains** — per-worker constant gains drawn once (useful for
  deterministic unit tests and for isolating the effect of fading in
  ablations).

Both models also embed a distance-based path-loss component so that workers
are heterogeneous in link quality as well as in compute speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..registry import register as _register

__all__ = ["ChannelModel", "RayleighFading", "StaticChannel"]


class ChannelModel:
    """Interface: produce per-worker channel gains for a communication round."""

    num_workers: int

    def gains(self, round_index: int) -> np.ndarray:
        """Return an array of ``num_workers`` positive channel gains.

        The same ``round_index`` always returns the same gains (block
        fading), which the power-control algorithm relies on: it computes
        σ_t from the gains of round ``t`` and the workers then transmit with
        those same gains.

        The result is the caller's to read, not to write: a model may hand
        out one shared read-only array on every call (:class:`StaticChannel`
        does), so copy before modifying.
        """
        raise NotImplementedError


@_register("channel", "rayleigh")
@dataclass
class RayleighFading(ChannelModel):
    """Rayleigh block-fading with per-worker average path gain.

    Parameters
    ----------
    num_workers:
        Number of workers.
    mean_gain:
        Average channel gain scale (paper-normalized to ~1).
    pathloss_spread:
        Multiplicative spread of per-worker average gains; worker ``i``'s
        average gain is drawn log-uniformly in
        ``[mean_gain / spread, mean_gain * spread]``.
    seed:
        Seed for both the static path loss and the per-round fading.
    """

    num_workers: int
    mean_gain: float = 1.0
    pathloss_spread: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.mean_gain <= 0:
            raise ValueError("mean_gain must be positive")
        if self.pathloss_spread < 1.0:
            raise ValueError("pathloss_spread must be >= 1")
        rng = np.random.default_rng(self.seed)
        log_spread = np.log(self.pathloss_spread)
        self._avg_gain = self.mean_gain * np.exp(
            rng.uniform(-log_spread, log_spread, size=self.num_workers)
        )

    @property
    def average_gains(self) -> np.ndarray:
        """Per-worker long-term average gains (path loss component)."""
        return self._avg_gain.copy()

    def gains(self, round_index: int) -> np.ndarray:
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        # Derive a per-round generator so gains are reproducible and
        # independent across rounds without storing any history.
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, round_index, 0x5EED])
        )
        # |CN(0,1)| is Rayleigh(scale=1/sqrt(2)); normalize to unit mean.
        real = rng.standard_normal(self.num_workers)
        imag = rng.standard_normal(self.num_workers)
        rayleigh = np.sqrt(real**2 + imag**2) / np.sqrt(np.pi / 2.0)
        gains = self._avg_gain * rayleigh
        # Guard against pathologically deep fades that would blow up the
        # transmit power p_i = d_i σ / h_i in the simulation.
        return np.maximum(gains, 1e-3 * self._avg_gain)


@_register("channel", "static")
@dataclass
class StaticChannel(ChannelModel):
    """Constant per-worker channel gains (no fading)."""

    num_workers: int
    mean_gain: float = 1.0
    spread: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.mean_gain <= 0:
            raise ValueError("mean_gain must be positive")
        if self.spread < 1.0:
            raise ValueError("spread must be >= 1")
        rng = np.random.default_rng(self.seed)
        if self.spread == 1.0:
            self._gains = np.full(self.num_workers, self.mean_gain)
        else:
            log_spread = np.log(self.spread)
            self._gains = self.mean_gain * np.exp(
                rng.uniform(-log_spread, log_spread, size=self.num_workers)
            )
        # Handed out as is by gains(): an O(N) copy per round is the largest
        # single cost of a round at 1M workers.
        self._gains.setflags(write=False)

    def gains(self, round_index: int) -> np.ndarray:
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        return self._gains
