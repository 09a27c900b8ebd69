"""Scalar full-scan reference channel: the oracle for the production kernel.

Production :class:`~repro.phy.channel.AcousticChannel` serves every
geometry query from the vector kernel (per-node epochs, spatial-hash
culling) and schedules each broadcast's arrivals with one bulk heap push.
:class:`ReferenceChannel` overrides the four geometry/fan-out methods with
the plain uncached math instead: every query re-reads positions and scans
every member, and every arrival gets its own ``push_at``.  Nothing is
cached, so nothing can go stale — production must match it bit for bit.

Whole scenarios swap it in through the ``reference_run`` fixture in
``tests/conftest.py``; channel-level tests construct it directly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.des.events import PRIORITY_HIGH
from repro.phy.channel import AcousticChannel
from repro.phy.frame import Frame
from repro.phy.modem import AcousticModem, Arrival
from repro.phy.vectorized import Link



class ReferenceChannel(AcousticChannel):
    """:class:`AcousticChannel` with scalar full-scan geometry and fan-out."""

    def distance_m(self, a: int, b: int) -> float:
        return self.position_of(a).distance_to(self.position_of(b))

    def propagation_delay_s(self, a: int, b: int) -> float:
        return self.distance_m(a, b) / self.sound_speed_mps

    def neighbors_of(self, node_id: int) -> Tuple[int, ...]:
        origin = self.position_of(node_id)
        return tuple(
            other
            for other, (modem, pos_fn) in self._members.items()
            if other != node_id
            and modem.enabled
            and origin.distance_to(pos_fn()) <= self.max_range_m
        )

    def targets(
        self, tx_id: int
    ) -> Tuple[List[Tuple[int, AcousticModem, float, float]], int]:
        """In-reach ``(rx_id, modem, delay_s, level_db)`` list and the
        out-of-reach count, from a fresh scan in registration order."""
        tx_pos = self.position_of(tx_id)
        reach = self.max_range_m * self.interference_range_factor
        targets = []
        skips = 0
        for node_id, (modem, pos_fn) in self._members.items():
            if node_id == tx_id:
                continue
            rx_pos = pos_fn()
            distance = tx_pos.distance_to(rx_pos)
            if distance > reach:
                skips += 1
                continue
            targets.append(
                (
                    node_id,
                    modem,
                    distance / self.sound_speed_mps,
                    self.link_budget.received_level_db(distance),
                )
            )
        return targets, skips

    def broadcast(self, tx_modem: AcousticModem, frame: Frame, duration_s: float) -> None:
        self.stats.broadcasts += 1
        tx_id = tx_modem.node_id
        targets, skips = self.targets(tx_id)
        self.stats.out_of_range_skips += skips
        now = self.sim.now
        push_at = self.sim.push_at
        for _, modem, delay, level in targets:
            start = now + delay
            arrival = Arrival(frame, tx_id, start, start + duration_s, level, delay)
            # High priority so arrivals register before same-instant MAC logic.
            push_at(start, modem.begin_arrival, (arrival,), PRIORITY_HIGH)
        self.stats.deliveries += len(targets)

    def link(self, a: int, b: int) -> Link:
        """The directed pair's link state from scalar math."""
        distance = self.distance_m(a, b)
        return (
            distance,
            self.propagation_delay_s(a, b),
            self.link_budget.received_level_db(distance),
            distance <= self.max_range_m * self.interference_range_factor,
            distance <= self.max_range_m,
        )


def kernel_link(channel: AcousticChannel, a: int, b: int) -> Link:
    """The directed pair's link state as the production kernel serves it.

    A candidate pair is read from the row's arrays at its candidate
    position, and the point query must agree with that stored entry.  A
    non-candidate pair has no entry: the point query computes it, and the
    cull is only sound if it is out of reach.
    """
    kernel = channel.kernel
    row = kernel.row(a)
    j = kernel.index_of(b)
    served = kernel.ensure_pair(row, j)
    pos = row.position(j)
    if pos < 0:
        assert j not in row.candidates.tolist()
        assert served[3] is False and served[4] is False
        return served
    assert row.candidates[pos] == j
    stored = (
        float(row.distance_m[pos]),
        float(row.delay_s[pos]),
        float(row.level_db[pos]),
        bool(row.in_reach[pos]),
        bool(row.in_decode[pos]),
    )
    assert stored == served
    return stored


def fan_out(channel: AcousticChannel, tx_id: int) -> List[Tuple[int, float, float]]:
    """``(rx_id, delay_s, level_db)`` triples a broadcast from ``tx_id``
    would schedule, from either channel.

    On the production channel each receiver's id is read off its bound
    receive callback (``callback.__self__`` is the receiving modem), so
    the three fan-out products are checked to be aligned entry by entry.
    """
    if isinstance(channel, ReferenceChannel):
        targets, _ = channel.targets(tx_id)
        return [(rx, delay, level) for rx, _, delay, level in targets]
    kernel = channel.kernel
    row = kernel.row(tx_id)
    callbacks = kernel.deliveries(row)
    assert len(callbacks) == len(row.delivery_delays) == len(row.delivery_levels)
    return list(
        zip(
            [callback.__self__.node_id for callback in callbacks],
            row.delivery_delays.tolist(),
            row.delivery_levels.tolist(),
        )
    )
