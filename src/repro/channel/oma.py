"""Orthogonal multiple access (OMA) latency models.

The OMA baselines (FedAvg, TiFL) upload each worker's model over orthogonal
resources, one after another in time (TDMA).  The aggregate upload latency
of a round therefore grows with the number of participating workers, in
contrast to AirComp whose latency is independent of it
(``repro.channel.aircomp.aircomp_latency``).

The latency model follows the standard formulation used by the paper's OMA
references ([5]-[9]): each worker must deliver ``q`` model parameters of
``bits_per_param`` bits at the Shannon rate of its share of the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["OMAConfig", "worker_upload_time", "tdma_round_time"]


@dataclass
class OMAConfig:
    """Link-budget parameters for OMA uploads.

    Attributes
    ----------
    bandwidth_hz:
        Total uplink bandwidth ``B`` (the paper uses 1 MHz).
    transmit_power_w:
        Worker transmit power used for the rate computation.
    noise_power_w:
        Receiver noise power over the full band.
    bits_per_param:
        Bits used to represent one model parameter (32 for float32 uploads).
    """

    bandwidth_hz: float = 1e6
    transmit_power_w: float = 1.0
    noise_power_w: float = 1e-3
    bits_per_param: int = 32

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.transmit_power_w <= 0:
            raise ValueError("transmit power must be positive")
        if self.noise_power_w <= 0:
            raise ValueError("noise power must be positive")
        if self.bits_per_param <= 0:
            raise ValueError("bits_per_param must be positive")


def worker_upload_time(
    model_dimension: int,
    channel_gain: float,
    config: OMAConfig,
    bandwidth_share: float = 1.0,
) -> float:
    """Time for a single worker to upload its model over its OMA share.

    Rate = ``B_share · log2(1 + P h² / (N0 · B_share/B))`` following the
    Shannon capacity of the allocated sub-band.
    """
    if model_dimension <= 0:
        raise ValueError("model_dimension must be positive")
    if channel_gain <= 0:
        raise ValueError("channel_gain must be positive")
    if not 0 < bandwidth_share <= 1.0:
        raise ValueError("bandwidth_share must be in (0, 1]")
    band = config.bandwidth_hz * bandwidth_share
    noise = config.noise_power_w * bandwidth_share
    snr = config.transmit_power_w * channel_gain**2 / noise
    rate_bps = band * np.log2(1.0 + snr)
    bits = float(model_dimension) * config.bits_per_param
    return float(bits / rate_bps)


def tdma_round_time(
    model_dimension: int,
    channel_gains: Sequence[float],
    config: OMAConfig,
) -> float:
    """Total upload time when workers transmit one after another (TDMA).

    Each worker gets the full band for its slot; the round's upload phase is
    the *sum* of the individual upload times, so it grows linearly with the
    number of workers.
    """
    gains = np.asarray(channel_gains, dtype=np.float64)
    if gains.size == 0:
        raise ValueError("at least one worker required")
    return float(
        sum(
            worker_upload_time(model_dimension, g, config, bandwidth_share=1.0)
            for g in gains
        )
    )
