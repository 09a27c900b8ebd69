"""Metrics layer: the paper's Eqs. (2)-(4) plus overhead and drain time."""

from .efficiency import EfficiencyIndex, efficiency_index
from .execution import ExecutionResult, mean_delivery_delay_s
from .overhead import MEMORY_BITS_PER_ENTRY, OverheadReport, network_overhead
from .throughput import ThroughputReport, network_throughput
from .utilization import UtilizationReport, network_utilization

__all__ = [
    "EfficiencyIndex",
    "ExecutionResult",
    "MEMORY_BITS_PER_ENTRY",
    "OverheadReport",
    "ThroughputReport",
    "UtilizationReport",
    "efficiency_index",
    "network_utilization",
    "mean_delivery_delay_s",
    "network_overhead",
    "network_throughput",
]
