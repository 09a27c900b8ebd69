"""Test-side views of simulator internals that the program itself never needs.

Each helper reads state a test wants to observe (a channel's modems, the
event queue's length, a tracker's windows, a deployment's connectivity)
without the program carrying an accessor that only tests call.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.core.ewmac.schedule import NeighborScheduleTracker, ProtectedInterval
from repro.core.ewmac.states import TRANSITIONS, EwState
from repro.des.simulator import Simulator
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario import Scenario
from repro.phy.channel import AcousticChannel
from repro.phy.modem import AcousticModem
from repro.topology.deployment import Deployment


def modem_of(channel: AcousticChannel, node_id: int) -> AcousticModem:
    """The modem ``node_id`` registered on ``channel``."""
    return channel._members[node_id][0]


def unforwarded_scenario(config: ScenarioConfig) -> Scenario:
    """A scenario whose nodes deliver data but never relay it onward."""
    scenario = Scenario(config)
    for mac in scenario.macs:
        mac.on_data_delivered = None
    return scenario


def pending_events(sim: Simulator) -> int:
    """Number of live (non-cancelled, unfired) events in the queue."""
    return len(sim._queue)


def sensor_ids(deployment: Deployment) -> List[int]:
    """Every node id that is not a sink, in id order."""
    sinks = set(deployment.sink_ids)
    return [i for i in range(deployment.n_nodes) if i not in sinks]


def is_connected(deployment: Deployment) -> bool:
    """True if every sensor can reach some sink over in-range hops."""
    if not deployment.sink_ids:
        return False
    reachable = set(deployment.sink_ids)
    frontier = list(deployment.sink_ids)
    while frontier:
        current = frontier.pop()
        for other in deployment.neighbors_of(current):
            if other not in reachable:
                reachable.add(other)
                frontier.append(other)
    return len(reachable) == deployment.n_nodes


def windows_of(tracker: NeighborScheduleTracker, node_id: int) -> List[ProtectedInterval]:
    """The protected windows ``tracker`` holds for neighbour ``node_id``."""
    return list(tracker._windows.get(node_id, []))


def tracked_neighbors(tracker: NeighborScheduleTracker) -> List[int]:
    """Sorted ids of the neighbours with at least one tracked window."""
    return sorted(tracker._windows)


def total_windows(tracker: NeighborScheduleTracker) -> int:
    """Number of windows ``tracker`` holds over all neighbours."""
    return sum(len(windows) for windows in tracker._windows.values())


def reachable_states() -> FrozenSet[EwState]:
    """All Fig. 3 states reachable from Idle over the transition graph."""
    reachable = {EwState.IDLE}
    frontier = [EwState.IDLE]
    while frontier:
        current = frontier.pop()
        for (src, dst) in TRANSITIONS:
            if src is current and dst not in reachable:
                reachable.add(dst)
                frontier.append(dst)
    return frozenset(reachable)
