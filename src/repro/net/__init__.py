"""Network substrate: nodes, clocks, neighbour knowledge."""

from .clock import NodeClock
from .neighbors import NeighborInfo, NeighborTable, TwoHopTable
from .node import AppStats, DataRequest, Node

__all__ = [
    "AppStats",
    "DataRequest",
    "NeighborInfo",
    "NeighborTable",
    "Node",
    "NodeClock",
    "TwoHopTable",
]
