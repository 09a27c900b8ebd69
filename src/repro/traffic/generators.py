"""Workload generators.

The paper sweeps *offered load* in kbps (Sec. 5, Figs. 6-11).  Fig. 8's
caption calibrates the unit: "20 packets per 300 s, i.e. offer load of
approximately 0.136 [kbps]" — with 2048-bit packets, 20 * 2048 / 300 =
136.5 bps.  Offered load is therefore **network-wide generated bits per
second**, independent of node count.

Generators:

* :class:`PoissonTraffic` — network-wide Poisson packet arrivals at the
  configured offered load; each packet originates at a uniformly chosen
  sensor and is addressed to that sensor's current depth-routing next hop.
* :class:`BatchWorkload` — the Fig. 8 "execution time" workload: a fixed
  batch of packets injected at the start; the experiment measures the time
  until the network drains them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..des.simulator import Simulator
from ..net.node import Node
from ..phy.frame import DEFAULT_DATA_PACKET_BITS
from ..topology.routing import DepthRouting


@dataclass
class TrafficStats:
    """What a generator injected."""

    packets: int = 0
    bits: int = 0
    undeliverable: int = 0  # arrivals at dead or momentarily stranded sources


def offered_load_to_rate(offered_load_kbps: float, packet_bits: int) -> float:
    """Packets per second network-wide for a given offered load."""
    if offered_load_kbps < 0:
        raise ValueError("offered load must be non-negative")
    if packet_bits <= 0:
        raise ValueError("packet size must be positive")
    return offered_load_kbps * 1000.0 / packet_bits


def _inject(
    source: Node, routing: DepthRouting, packet_bits: int, stats: TrafficStats
) -> None:
    """Enqueue one drawn packet at ``source`` toward its current next hop.

    A crashed source generates nothing and a stranded one (no next hop)
    cannot report: either way the arrival counts as undeliverable.  The
    source is drawn before this check, so a run without crashes draws
    exactly the same sources.
    """
    if not source.alive:
        stats.undeliverable += 1
        return
    next_hop = routing.next_hop(source.node_id)
    if next_hop is None:
        stats.undeliverable += 1
        return
    source.enqueue_data(next_hop, packet_bits)
    stats.packets += 1
    stats.bits += packet_bits


class PoissonTraffic:
    """Network-wide Poisson arrivals at a fixed offered load.

    Each arrival picks a source sensor uniformly at random and enqueues one
    packet toward that sensor's current next hop.  If the source is down
    (crashed) or has no next hop at that instant (stranded by mobility),
    the arrival is counted as undeliverable and skipped — matching a sensor
    that cannot currently report anything.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        routing: DepthRouting,
        offered_load_kbps: float,
        packet_bits: int = DEFAULT_DATA_PACKET_BITS,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.sources = [n for n in nodes if not n.is_sink]
        if not self.sources:
            raise ValueError("no traffic sources (all nodes are sinks)")
        self.routing = routing
        self.packet_bits = packet_bits
        self.rate_pps = offered_load_to_rate(offered_load_kbps, packet_bits)
        self._rng = rng if rng is not None else sim.streams.get("traffic")
        self.stats = TrafficStats()
        self._timer = None

    def start(self) -> None:
        """Begin generating (no-op at zero load)."""
        if self.rate_pps > 0:
            self._schedule_next()

    def stop(self) -> None:
        self.sim.cancel(self._timer)
        self._timer = None

    def _schedule_next(self) -> None:
        gap = float(self._rng.exponential(1.0 / self.rate_pps))
        self._timer = self.sim.schedule(gap, self._arrival)

    def _arrival(self) -> None:
        source = self.sources[int(self._rng.integers(0, len(self.sources)))]
        _inject(source, self.routing, self.packet_bits, self.stats)
        self._schedule_next()


class BatchWorkload:
    """Inject a fixed batch of packets; used for Fig. 8 execution time.

    Injections are staggered uniformly over ``inject_window_s`` (the
    paper's "N packets per 300 s" framing) across randomly chosen sources —
    dumping the whole batch at one instant would measure a contention
    stampede rather than the protocols' transfer speed.

    :meth:`all_drained` reports whether every injected packet reached a
    terminal state: acknowledged by its next hop (``note_sent``) or dropped
    after exhausting its retries (reported by the caller via
    :meth:`note_drops`).
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        routing: DepthRouting,
        n_packets: int,
        packet_bits: int = DEFAULT_DATA_PACKET_BITS,
        inject_window_s: float = 150.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_packets < 0:
            raise ValueError("n_packets must be non-negative")
        if inject_window_s < 0:
            raise ValueError("inject window must be non-negative")
        self.sim = sim
        self.sources = [n for n in nodes if not n.is_sink]
        self.routing = routing
        self.n_packets = n_packets
        self.packet_bits = packet_bits
        self.inject_window_s = inject_window_s
        self._rng = rng if rng is not None else sim.streams.get("traffic.batch")
        self.stats = TrafficStats()
        self._started_at: Optional[float] = None

    def start(self) -> None:
        """Schedule the staggered batch injections."""
        self._started_at = self.sim.now
        offsets = sorted(
            float(self._rng.uniform(0.0, self.inject_window_s))
            for _ in range(self.n_packets)
        )
        for offset in offsets:
            self.sim.schedule(offset, self._inject_one)

    def _inject_one(self) -> None:
        source = self.sources[int(self._rng.integers(0, len(self.sources)))]
        _inject(source, self.routing, self.packet_bits, self.stats)

    def sent_packets(self) -> int:
        return sum(s.app_stats.sent for s in self.sources)

    def all_injected(self) -> bool:
        """True once every scheduled injection has happened."""
        return (
            self._started_at is not None
            and self.sim.now >= self._started_at + self.inject_window_s
        )

    def all_drained(self) -> bool:
        """True once no batch work remains anywhere in the network.

        Terminal condition: every injection happened, every queue (including
        relays') is empty, and every MAC is back in its idle state — i.e.
        each packet was either delivered end to end or dropped.
        """
        if not self.all_injected():
            return False
        for source in self.sources:
            if source.queue:
                return False
            mac = source.mac
            if mac is not None and getattr(mac.state, "value", "idle") != "idle":
                return False
        return True
