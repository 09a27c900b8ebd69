"""Overhead accounting (paper Sec. 5.3).

"The overhead values are calculated by comparing transmission cost, cost of
maintaining neighbors, and retransmission cost of S-FAMA. ... The neighbor
maintenance cost includes the cost of accessing neighboring information,
carrying more information as piggyback, and transmitting messages without
piggyback."

One overhead unit = one bit-equivalent of non-payload cost:

* **control transmission**: control bits put on the air (RTS/CTS/Ack and
  the opportunistic negotiation packets);
* **piggyback**: extra neighbour-info bits riding on control packets
  (one-hop delays for ROPA/EW-MAC, two-hop digests for CS-MAC);
* **maintenance**: NEIGH broadcast bits (periodic two-hop announcements of
  ROPA/CS-MAC; EW-MAC and S-FAMA never broadcast);
* **retransmission**: every bit transmitted more than once;
* **computation**: bit-equivalent charges the MACs record for neighbour
  schedule bookkeeping and opportunity feasibility checks ("the cost of
  accessing neighboring information");
* **memory**: a per-entry charge for stored neighbour state, skipped for
  S-FAMA, which "does not require additional computation or storage".

The paper reports overhead as a *ratio to S-FAMA* (its Fig. 10): the
figure divides each protocol's seed-averaged ``total_units`` by S-FAMA's
at the same x, through
:func:`~repro.experiments.engine.aggregate_relative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..mac.base import SlottedMac, neighbor_state_entries

#: Bit-equivalent charge per stored neighbour-table entry.
MEMORY_BITS_PER_ENTRY = 4.0


@dataclass
class OverheadReport:
    """Decomposed overhead units for one protocol run."""

    control_bits: float
    piggyback_bits: float
    maintenance_bits: float
    retransmitted_bits: float
    computation_units: float
    memory_units: float

    @property
    def total_units(self) -> float:
        return (
            self.control_bits
            + self.piggyback_bits
            + self.maintenance_bits
            + self.retransmitted_bits
            + self.computation_units
            + self.memory_units
        )


def network_overhead(macs: Sequence[SlottedMac]) -> OverheadReport:
    """Aggregate overhead units over every node's MAC counters."""
    control = 0.0
    piggyback = 0.0
    maintenance = 0.0
    retransmitted = 0.0
    computation = 0.0
    memory = 0.0
    for mac in macs:
        control += mac.stats.ctrl_sent_bits
        piggyback += mac.stats.piggyback_bits
        maintenance += mac.stats.maintenance_tx_bits
        retransmitted += mac.stats.retransmitted_bits
        computation += mac.stats.computation_units
        if mac.requires_neighbor_info:
            memory += neighbor_state_entries(mac) * MEMORY_BITS_PER_ENTRY
    return OverheadReport(
        control_bits=control,
        piggyback_bits=piggyback,
        maintenance_bits=maintenance,
        retransmitted_bits=retransmitted,
        computation_units=computation,
        memory_units=memory,
    )
