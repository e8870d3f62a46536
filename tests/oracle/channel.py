"""The Rayleigh block-fading draw as one array expression: the reference of
:meth:`repro.channel.RayleighFading.gains`, which runs the same operations
in its two draw buffers."""

from __future__ import annotations

import numpy as np

from repro.channel import RayleighFading


def rayleigh_gains(channel: RayleighFading, round_index: int) -> np.ndarray:
    """``max(avg · sqrt(real² + imag²) / sqrt(π/2), 1e-3 · avg)`` over the
    round's two standard-normal draws, one fresh array per step."""
    rng = np.random.default_rng(np.random.SeedSequence([channel.seed, round_index, 0x5EED]))
    real = rng.standard_normal(channel.num_workers)
    imag = rng.standard_normal(channel.num_workers)
    rayleigh = np.sqrt(real**2 + imag**2) / np.sqrt(np.pi / 2.0)
    gains = channel._avg_gain * rayleigh
    return np.maximum(gains, 1e-3 * channel._avg_gain)
