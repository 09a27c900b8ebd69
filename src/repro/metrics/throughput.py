"""Throughput metrics (paper Eqs. 2-3).

Eq. (2) sums the successfully received data at each sensor k; Eq. (3)
divides the network sum by the observation window T:

    TPT = sum_k dr_k / T

The MAC layer counts every successfully received data bit (negotiated and
opportunistic), so throughput here is MAC-level goodput: a packet relayed
over h hops contributes h times, exactly as Eq. (2) counts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..mac.base import SlottedMac


@dataclass
class ThroughputReport:
    """Network throughput summary."""

    total_bits: int
    duration_s: float
    per_node_bits: List[int]

    @property
    def kbps(self) -> float:
        """Eq. (3) in the paper's Fig. 6 units."""
        return self.total_bits / self.duration_s / 1000.0


def network_throughput(macs: Sequence[SlottedMac], duration_s: float) -> ThroughputReport:
    """Eq. (3): total successfully received data bits over T."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    per_node = [mac.stats.total_data_bits_received for mac in macs]
    return ThroughputReport(
        total_bits=sum(per_node), duration_s=duration_s, per_node_bits=per_node
    )
