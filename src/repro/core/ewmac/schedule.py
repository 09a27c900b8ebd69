"""Neighbour-schedule tracking for interference-safe extra communications.

Paper Sec. 4.2: before sending an extra packet, sensor *i* "must consider
its other neighbors ... i should ensure that EXR arrives at those
neighbors in period V" and "EXData arrives at the other neighbors in the
period IV after they send Ack packets".  In other words, off-slot
transmissions are only allowed when their arrival at every known busy
neighbour misses that neighbour's *protected* reception windows.

:class:`NeighborScheduleTracker` stores, per neighbour, the time intervals
during which the neighbour must receive cleanly (derived by the protocol
from overheard RTS/CTS/Data frames).  :meth:`is_send_safe` then checks a
candidate off-slot transmission against every tracked window using the
sender's learned one-hop delays.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple


class ProtectedInterval:
    """A window during which a neighbour must not receive foreign energy.

    A plain slotted class rather than a frozen dataclass: one is created
    per overheard negotiation frame per listener, and the frozen
    ``__setattr__`` detour tripled construction cost on that path.
    """

    __slots__ = ("start", "end", "reason")

    def __init__(self, start: float, end: float, reason: str = "") -> None:
        self.start = start
        self.end = end
        self.reason = reason

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and self.end > start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProtectedInterval({self.start!r}, {self.end!r}, {self.reason!r})"


class NeighborScheduleTracker:
    """Protected reception windows of a node's neighbours."""

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        self._windows: Dict[int, List[ProtectedInterval]] = {}
        # Earliest end time of any tracked window: purge() is called per
        # overheard frame, and scanning every neighbour's list each time
        # dominated the tracker's cost — nothing can have expired before
        # this watermark, so the common purge is one float compare.
        self._next_expiry = float("inf")

    def protect(self, node_id: int, start: float, end: float, reason: str = "") -> None:
        """Mark [start, end) as a protected reception window of ``node_id``."""
        if node_id == self.owner_id:
            return
        if end <= start:
            return
        self._windows.setdefault(node_id, []).append(ProtectedInterval(start, end, reason))
        if end < self._next_expiry:
            self._next_expiry = end

    def purge(self, now: float) -> None:
        """Drop windows that ended in the past.

        Purely a memory/speed measure: an expired window (``end <= now``)
        can never overlap a future send window, so when it fires has no
        effect on :meth:`is_send_safe` decisions.
        """
        if now < self._next_expiry:
            return
        next_expiry = float("inf")
        for node_id in list(self._windows):
            kept = [w for w in self._windows[node_id] if w.end > now]
            if kept:
                self._windows[node_id] = kept
                for w in kept:
                    if w.end < next_expiry:
                        next_expiry = w.end
            else:
                del self._windows[node_id]
        self._next_expiry = next_expiry

    def is_send_safe(
        self,
        send_time: float,
        duration: float,
        neighbor_delays: Mapping[int, float],
        exclude: Iterable[int] = (),
    ) -> bool:
        """Would an off-slot transmission disturb any tracked neighbour?

        Args:
            send_time: When the transmission starts.
            duration: Its on-air duration.
            neighbor_delays: Learned one-hop delays; only neighbours with a
                known delay can be (and are) checked — the paper's
                protocols can only reason about neighbours they know.
            exclude: Node ids exempt from the check (the extra peer itself,
                whose windows the peer-side grant logic validates).

        Returns:
            True if no known protected window is hit.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        excluded = set(exclude)
        for node_id, windows in self._windows.items():
            if node_id in excluded:
                continue
            delay = neighbor_delays.get(node_id)
            if delay is None:
                continue
            arrive_start = send_time + delay
            arrive_end = arrive_start + duration
            for window in windows:
                if window.overlaps(arrive_start, arrive_end):
                    return False
        return True

    def blocking_conflicts(
        self,
        send_time: float,
        duration: float,
        neighbor_delays: Mapping[int, float],
        exclude: Iterable[int] = (),
    ) -> List[Tuple[int, ProtectedInterval]]:
        """Diagnostic variant of :meth:`is_send_safe`: list every conflict."""
        excluded = set(exclude)
        conflicts = []
        for node_id, windows in self._windows.items():
            if node_id in excluded:
                continue
            delay = neighbor_delays.get(node_id)
            if delay is None:
                continue
            arrive_start = send_time + delay
            arrive_end = arrive_start + duration
            for window in windows:
                if window.overlaps(arrive_start, arrive_end):
                    conflicts.append((node_id, window))
        return conflicts
