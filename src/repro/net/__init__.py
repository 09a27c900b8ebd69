"""Network substrate: nodes, clocks, neighbour knowledge."""

from .clock import NodeClock
from .neighbors import NeighborTable, TwoHopTable
from .node import AppStats, DataRequest, Node

__all__ = [
    "AppStats",
    "DataRequest",
    "NeighborTable",
    "Node",
    "NodeClock",
    "TwoHopTable",
]
