"""Workload generators: Poisson and fixed-batch traffic."""

from .generators import (
    BatchWorkload,
    PoissonTraffic,
    TrafficStats,
    offered_load_to_rate,
)

__all__ = [
    "BatchWorkload",
    "PoissonTraffic",
    "TrafficStats",
    "offered_load_to_rate",
]
