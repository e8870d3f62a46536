"""Wireless channel substrate: fading gains, AirComp MAC, OMA latency."""

from .fading import ChannelModel, RayleighFading, StaticChannel
from .aircomp import (
    AirCompResult,
    AirCompWorkspace,
    aircomp_aggregate,
    aircomp_aggregate_reference,
    aircomp_latency,
    aggregation_error_term,
    ideal_group_average,
    ideal_group_average_reference,
)
from .oma import OMAConfig, tdma_round_time, worker_upload_time

__all__ = [
    "ChannelModel",
    "RayleighFading",
    "StaticChannel",
    "AirCompResult",
    "AirCompWorkspace",
    "aircomp_aggregate",
    "aircomp_aggregate_reference",
    "ideal_group_average",
    "ideal_group_average_reference",
    "aggregation_error_term",
    "aircomp_latency",
    "OMAConfig",
    "worker_upload_time",
    "tdma_round_time",
]
