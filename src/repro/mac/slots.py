"""Slot arithmetic shared by all slotted UASN MAC protocols.

The paper (Sec. 3.1): "the duration of each time slot is tau_max + omega"
where tau_max is the maximal propagation delay and omega the control-packet
transmit time.  All negotiated packets (RTS/CTS/Data/Ack) start exactly at
slot boundaries; EW-MAC's extra packets (EXR/EXC/EXData/EXAck) generally do
not.

Two equations from the paper live here:

* Eq. (5) — Ack slot for variable-size data:
  ``ts(Ack) = ts(Data) + ceil((TD + tau_sr) / |ts|)``
* Eq. (6) — EXData start time so it reaches j right after j sends Ack(j,k):
  ``t(EXData_ij) = ts(Ack_jk) * (omega + tau_max) + omega - tau_ij``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Tolerance for boundary comparisons (floating-point slot arithmetic).
EPS = 1e-9


@dataclass(frozen=True)
class SlotTiming:
    """Slot grid parameters.

    Attributes:
        omega_s: Control packet on-air time (64 bits / 12 kbps = 5.33 ms).
        tau_max_s: Maximum one-hop propagation delay (1.5 km / 1.5 km/s = 1 s).
    """

    omega_s: float
    tau_max_s: float

    def __post_init__(self) -> None:
        if self.omega_s <= 0 or self.tau_max_s <= 0:
            raise ValueError("omega and tau_max must be positive")
        # Slot width is derived state queried on every slot computation
        # (tens of thousands of times per run via quiet rules and schedule
        # tracking), so it is computed once here; object.__setattr__ is the
        # frozen-dataclass idiom for caches, and non-field attributes stay
        # out of equality/hash.
        object.__setattr__(self, "_slot_s", self.omega_s + self.tau_max_s)

    @property
    def slot_s(self) -> float:
        """|ts| = omega + tau_max."""
        return self._slot_s

    # ------------------------------------------------------------------
    # Grid navigation
    # ------------------------------------------------------------------
    def slot_start(self, index: int) -> float:
        """Absolute start time of slot ``index`` (grid anchored at t=0)."""
        if index < 0:
            raise ValueError("slot index must be non-negative")
        return index * self._slot_s

    def slot_index(self, time: float) -> int:
        """Index of the slot containing ``time``."""
        if time < 0:
            raise ValueError("time must be non-negative")
        return int(math.floor((time + EPS) / self._slot_s))

    def next_slot_index(self, time: float) -> int:
        """Index of the first slot starting at or after ``time``."""
        index = self.slot_index(time)
        if abs(self.slot_start(index) - time) <= EPS:
            return index
        return index + 1

    def time_into_slot(self, time: float) -> float:
        """Offset of ``time`` from its slot's start."""
        return time - self.slot_start(self.slot_index(time))

    # ------------------------------------------------------------------
    # Paper equations
    # ------------------------------------------------------------------
    def data_slots(self, data_duration_s: float, tau_sr_s: float) -> int:
        """Number of slots the receiver spends on a data packet, Eq. (5).

        ``ceil((TD + tau_sr) / |ts|)``, at least 1.
        """
        if data_duration_s <= 0:
            raise ValueError("data duration must be positive")
        if tau_sr_s < 0:
            raise ValueError("tau must be non-negative")
        return max(1, math.ceil((data_duration_s + tau_sr_s) / self.slot_s - EPS))

    def ack_slot(self, data_slot: int, data_duration_s: float, tau_sr_s: float) -> int:
        """Eq. (5): the slot in which the receiver transmits the Ack."""
        return data_slot + self.data_slots(data_duration_s, tau_sr_s)

    def exdata_start_time(self, ack_slot: int, tau_ij_s: float) -> float:
        """Eq. (6): when sensor i starts EXData so it reaches j post-Ack.

        ``t = ts(Ack_jk) * (omega + tau_max) + omega - tau_ij``:
        the EXData's leading edge arrives at j exactly when j finishes
        transmitting its Ack (slot start + omega).
        """
        if tau_ij_s < 0:
            raise ValueError("tau must be non-negative")
        return self.slot_start(ack_slot) + self.omega_s - tau_ij_s

    def ack_end_time(self, ack_slot: int) -> float:
        """Time by which an exchange whose Ack goes out in ``ack_slot`` is over.

        ``ts(Ack) * (omega + tau_max) + omega + tau_max``: Ack slot start
        plus the Ack's on-air time and the worst-case propagation, so every
        neighbour of either endpoint has heard its last bit.
        """
        return self.slot_start(ack_slot) + self.omega_s + self.tau_max_s


def make_slot_timing(
    bitrate_bps: float,
    control_bits: int,
    max_range_m: float,
    speed_mps: float,
) -> SlotTiming:
    """Build the paper's slot grid from channel parameters."""
    return SlotTiming(
        omega_s=control_bits / bitrate_bps,
        tau_max_s=max_range_m / speed_mps,
    )
