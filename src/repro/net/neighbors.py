"""One-hop (and, for the baselines, two-hop) neighbour knowledge.

EW-MAC's stated overhead advantage (paper Sec. 4.3 and 5.3) is that each
sensor maintains *only* the propagation delay of its one-hop neighbours,
refreshed opportunistically from the timestamp carried in every received
packet: ``delay = arrival_time - frame.timestamp``.  No periodic two-hop
broadcasts are needed.

ROPA and CS-MAC, by contrast, "must maintain and transmit two-hop neighbor
information"; :class:`TwoHopTable` models that state, and the MAC layers
charge its periodic refresh traffic to the overhead accounting.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class NeighborTable:
    """Propagation-delay table for one-hop neighbours.

    The latest measurement wins: under slowly drifting topologies the
    newest sample is the best estimate.

    Args:
        owner_id: The owning node's id (rejects self-entries).
    """

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        self._delays: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._delays)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._delays

    def observe(self, node_id: int, delay_s: float) -> None:
        """Record a delay measurement for ``node_id``.

        Called for every received frame: measurement = arrival start minus
        the frame's embedded timestamp (paper Sec. 4.3).
        """
        if node_id == self.owner_id:
            raise ValueError("a node is not its own neighbour")
        if delay_s < 0:
            raise ValueError(f"negative measured delay {delay_s!r}")
        old = self._delays.get(node_id)
        if old is None:
            self._delays[node_id] = delay_s
        else:
            # Not ``= delay_s``: ``a + (b - a)`` can differ from ``b`` by one
            # ULP, and every MAC's timing reads these delays.
            self._delays[node_id] = old + (delay_s - old)

    def delay_to(self, node_id: int) -> Optional[float]:
        """Known propagation delay to ``node_id``, or None if unknown."""
        return self._delays.get(node_id)

    def neighbors(self) -> List[int]:
        """All known neighbour ids (unordered)."""
        return list(self._delays)

    def memory_entries(self) -> int:
        """Number of stored entries (overhead accounting)."""
        return len(self._delays)


class TwoHopTable:
    """Two-hop neighbourhood state maintained by ROPA and CS-MAC.

    Stores, per one-hop neighbour *n*, the set of *n*'s neighbours together
    with *n*'s delays to them (as last announced by *n*).  The owning MAC
    charges the periodic announcements that keep this fresh to its overhead.
    """

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        self._links: Dict[int, Dict[int, float]] = {}

    def record_announcement(
        self, neighbor_id: int, links: Iterable[Tuple[int, float]]
    ) -> None:
        """Store neighbour ``neighbor_id``'s announced one-hop link delays.

        An announcement carries the neighbour's *complete current* table, so
        it replaces (not merges with) the previous announcement — otherwise
        mobility would make the stored two-hop state grow without bound.
        """
        table = {
            other: delay for other, delay in links if other != self.owner_id
        }
        self._links[neighbor_id] = table

    def memory_entries(self) -> int:
        """Stored link count (overhead accounting: CS-MAC/ROPA memory)."""
        return sum(len(links) for links in self._links.values())
