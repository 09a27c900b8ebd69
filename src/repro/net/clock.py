"""Per-node clocks.

The paper assumes network-wide synchronization (via protocols such as
DA-Sync, its refs [20-22]).  :class:`NodeClock` defaults to a perfect clock
but supports a constant offset and a drift rate so the test suite and the
robustness ablations can quantify EW-MAC's sensitivity to imperfect sync —
the slotted design depends on nodes agreeing on slot boundaries.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..des.simulator import Simulator


class NodeClock:
    """A node's local view of time.

    local = true * (1 + drift_ppm * 1e-6) + offset
    """

    def __init__(self, sim: Simulator, offset_s: float = 0.0, drift_ppm: float = 0.0) -> None:
        self.sim = sim
        self.offset_s = offset_s
        self.drift_ppm = drift_ppm
        #: Called just before :meth:`apply_fault` changes the clock, so a
        #: component that derived future instants from it (a sleeping MAC)
        #: can settle them on the old timeline first.
        self.before_fault: Optional[Callable[[], None]] = None

    def now(self) -> float:
        """Current local time."""
        return self.to_local(self.sim.now)

    def to_local(self, true_time: float) -> float:
        """Map a true simulation time to this node's local time."""
        return true_time * (1.0 + self.drift_ppm * 1e-6) + self.offset_s

    def to_true(self, local_time: float) -> float:
        """Map a local time back to true simulation time."""
        return (local_time - self.offset_s) / (1.0 + self.drift_ppm * 1e-6)

    def apply_fault(
        self, offset_jump_s: float = 0.0, drift_ppm: Optional[float] = None
    ) -> None:
        """Degrade synchronization mid-run (fault injection).

        Continuity-preserving apart from the jump: local time immediately
        after the fault equals local time immediately before plus
        ``offset_jump_s``, regardless of any drift change — the offset is
        re-anchored so a new drift rate only affects the future, not the
        node's past local timeline.
        """
        if self.before_fault is not None:
            self.before_fault()
        local_now = self.to_local(self.sim.now)
        if drift_ppm is not None:
            self.drift_ppm = drift_ppm
        self.offset_s = (
            local_now + offset_jump_s - self.sim.now * (1.0 + self.drift_ppm * 1e-6)
        )
