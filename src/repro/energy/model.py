"""Power-consumption model (paper Sec. 5.2).

The paper evaluates "power consumption including the power for waiting,
transmitting, and receiving", plus the cost of *maintaining* neighbour
state (it is the maintenance term that separates ROPA/CS-MAC from
EW-MAC/S-FAMA as node count grows).

Energy for one node over an observation window of length T:

    E = P_tx * t_tx  +  P_rx * t_rx_busy  +  P_idle * (T - t_tx - t_rx_busy)
        + P_entry * (one_hop_entries + two_hop_entries) * T

where ``t_tx`` / ``t_rx_busy`` come from the modem's residency counters and
the last term models the continuous bookkeeping cost of stored neighbour
entries ("memory requirements depend on the amount and complexity of the
computations and the number of neighbors", Sec. 5.3).

The wattages follow commercial acoustic modems (e.g. the WHOI
micro-modem class): transmit ~2 W, receive ~0.8 W, idle listening ~80 mW.
Only relative ordering matters for reproducing the paper's figure shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..mac.base import SlottedMac, neighbor_state_entries


#: Power while transmitting (W).
TX_W = 2.0
#: Power while a signal is being received (W).
RX_W = 0.8
#: Idle-listening power, the "waiting" cost (W).
IDLE_W = 0.08
#: Continuous per-table-entry maintenance power (W).
ENTRY_W = 0.0002


def node_energy_j(mac: SlottedMac, duration_s: float) -> float:
    """Total energy one node consumed over ``duration_s``."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    modem = mac.node.modem.stats
    tx_time = min(modem.tx_time_s, duration_s)
    rx_time = min(modem.rx_busy_time_s, max(duration_s - tx_time, 0.0))
    idle_time = max(duration_s - tx_time - rx_time, 0.0)
    return (
        TX_W * tx_time
        + RX_W * rx_time
        + IDLE_W * idle_time
        + ENTRY_W * neighbor_state_entries(mac) * duration_s
    )


@dataclass
class EnergyReport:
    """Network-wide energy summary."""

    total_j: float
    duration_s: float
    per_node_j: List[float]

    @property
    def average_power_mw(self) -> float:
        """Network total average power in mW (the paper's Fig. 9 y-axis)."""
        return self.total_j / self.duration_s * 1000.0


def network_energy(macs: Sequence[SlottedMac], duration_s: float) -> EnergyReport:
    """Aggregate :func:`node_energy_j` over every node's MAC."""
    per_node = [node_energy_j(mac, duration_s) for mac in macs]
    return EnergyReport(total_j=sum(per_node), duration_s=duration_s, per_node_j=per_node)
