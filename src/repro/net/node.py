"""Sensor nodes.

A :class:`Node` ties together the pieces one underwater sensor owns: a
position in the water column, a half-duplex modem, a local clock, the
one-hop neighbour table, and a FIFO of application data waiting for the MAC
layer.  Sinks (surface buoys, paper Fig. 1) are ordinary nodes flagged
``is_sink``; they generate no traffic and terminate deliveries.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..acoustic.geometry import Position
from ..des.simulator import Simulator
from ..phy.channel import AcousticChannel
from ..phy.modem import AcousticModem
from .clock import NodeClock
from .neighbors import NeighborTable

#: Request uids feed the MAC's ``(src, uid)`` retransmission dedup key;
#: only their uniqueness matters, never their values.
_request_uids = itertools.count(1)


@dataclass
class DataRequest:
    """One application packet waiting to be sent.

    Attributes:
        dst: Next-hop destination node id.
        size_bits: Payload size in bits.
        created_at: Enqueue time (for delay metrics).
        attempts: How many contention attempts this request has consumed.
    """

    dst: int
    size_bits: int
    created_at: float
    attempts: int = 0
    uid: int = field(default_factory=lambda: next(_request_uids))


@dataclass
class AppStats:
    """Application-level counters for one node."""

    generated: int = 0
    generated_bits: int = 0
    sent: int = 0
    sent_bits: int = 0
    delivered: int = 0
    delivered_bits: int = 0
    delivery_delay_total_s: float = 0.0
    queue_drops: int = 0
    last_sent_at: float = 0.0


class Node:
    """One sensor (or sink) in the network."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        position: Position,
        channel: AcousticChannel,
        is_sink: bool = False,
        queue_limit: int = 1000,
        clock: Optional[NodeClock] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self._position = position
        self._channel = channel
        self.is_sink = is_sink
        self.queue_limit = queue_limit
        self.clock = clock if clock is not None else NodeClock(sim)
        self.neighbors = NeighborTable(node_id)
        self.queue: Deque[DataRequest] = deque()
        self.app_stats = AppStats()
        self.modem: AcousticModem = channel.create_modem(node_id, self._get_position)
        self.mac = None  # attached by the MAC layer
        #: Fault-recovery bookkeeping: when the node last came back from a
        #: crash, and how long it took to complete its first application-
        #: level send/delivery afterwards (the time-to-recover metric).
        self.recovered_at: Optional[float] = None
        self.recovery_latency_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Position (movement invalidates the channel's link-state cache)
    # ------------------------------------------------------------------
    def _get_position(self) -> Position:
        """Channel-facing position accessor.

        A bound method rather than a closure: with ``lambda: self._position``
        in its place, ``perfbench/run.py --workload fig6-quick`` peaked
        ~1.3 MB higher in RSS (2-core x86 host), with every result equal.
        """
        return self._position

    @property
    def position(self) -> Position:
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        """Move the node, bumping **this node's** position epoch.

        Every movement path (mobility models, tests poking positions)
        funnels through this setter, so cached pairwise link state can
        never go stale.  Passing the node id bumps only this node's epoch
        in the channel's per-node-epoch link cache: every pair not touching
        this node stays warm across the move.  The kernel also accumulates
        this node's *displacement* (distance between the old and new
        coordinates, from its own stored copy — no extra bookkeeping here)
        and re-bins it in the spatial hash, feeding the movement-bounded
        delta-epoch and reach-cull fast paths.  Assigning an equal position
        — e.g. a static-model step re-clamped to the same point — is not a
        move and keeps the cache warm.
        """
        if value != self._position:
            self._position = value
            self._channel.note_position_change(self.node_id)

    # ------------------------------------------------------------------
    # Application-side interface
    # ------------------------------------------------------------------
    def enqueue_data(self, dst: int, size_bits: int) -> bool:
        """Queue an application packet for the MAC; False if queue is full."""
        if dst == self.node_id:
            raise ValueError("cannot send to self")
        if size_bits <= 0:
            raise ValueError("size must be positive")
        self.app_stats.generated += 1
        self.app_stats.generated_bits += size_bits
        if len(self.queue) >= self.queue_limit:
            self.app_stats.queue_drops += 1
            return False
        self.queue.append(DataRequest(dst, size_bits, self.sim.now))
        if self.mac is not None:
            self.mac.notify_queue()
        return True

    def note_sent(self, request: DataRequest) -> None:
        """MAC callback: ``request`` was acknowledged by its next hop."""
        self.app_stats.sent += 1
        self.app_stats.sent_bits += request.size_bits
        self.app_stats.delivery_delay_total_s += self.sim.now - request.created_at
        self.app_stats.last_sent_at = self.sim.now
        self._note_recovery_progress()

    def note_delivered(self, size_bits: int) -> None:
        """MAC callback on the *receiver*: a data packet arrived intact."""
        self.app_stats.delivered += 1
        self.app_stats.delivered_bits += size_bits
        self._note_recovery_progress()

    def _note_recovery_progress(self) -> None:
        """First app-level success after a recovery fixes its latency."""
        if self.recovered_at is not None and self.recovery_latency_s is None:
            self.recovery_latency_s = self.sim.now - self.recovered_at

    # ------------------------------------------------------------------
    # Queue inspection used by MAC layers
    # ------------------------------------------------------------------
    @property
    def has_pending_data(self) -> bool:
        return bool(self.queue)

    def peek_request(self) -> Optional[DataRequest]:
        """Head-of-line request without removing it."""
        return self.queue[0] if self.queue else None

    def pending_for(self, dst: int) -> Optional[DataRequest]:
        """First queued request destined to ``dst`` (ROPA reverse traffic)."""
        for request in self.queue:
            if request.dst == dst:
                return request
        return None

    def remove_request(self, request: DataRequest) -> None:
        """Remove a specific request (after out-of-order service)."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.modem.enabled

    def fail(self) -> None:
        """Kill the node: stop its MAC and silence its modem.

        Queued data is lost with the node (it sank, flooded, or ran out of
        battery); the rest of the network must route around it.
        """
        if not self.alive:
            return  # already down; a second fail must not double-stop
        # Arrivals that ended before this instant were received alive.
        self.modem.settle()
        if self.mac is not None:
            self.mac.stop()
        self.modem.enabled = False
        self.queue.clear()

    def recover(self) -> None:
        """Bring a failed node back: re-enable the modem, restart the MAC.

        The node rejoins with an empty queue and wiped handshake state (a
        reboot, not a resume) and re-announces itself with a fresh Hello.
        Time-to-recover is measured from this instant to the node's first
        successful application-level send or delivery.
        """
        if self.alive:
            return
        self.modem.settle()
        self.modem.enabled = True
        self.modem.tx_enabled = True
        self.modem.rx_enabled = True
        self.recovered_at = self.sim.now
        self.recovery_latency_s = None
        if self.mac is not None:
            self.mac.restart()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "sink" if self.is_sink else "node"
        return f"<{kind} {self.node_id} depth={self.position.z:.0f}m q={len(self.queue)}>"
