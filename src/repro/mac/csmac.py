"""CS-MAC — Channel Stealing MAC (Chen et al., OCEANS 2011).

As characterized by the paper (Secs. 2 and 5): "sensors do not send more
control packets to negotiate but send data packets directly after
determining that the packet will arrive at the receiver before the
negotiated packet", and crucially, CS-MAC "exploits the wait time of
sensors without assessing how transmission will interfere with other
neighbors; thus, additional transmission will increase the interference
effect" — which is why its throughput collapses at high offered load
(paper Fig. 6, beyond 0.8 kbps).

Implementation: a node that overhears a negotiation (CTS) and has queued
data *steals* the waiting period by transmitting its DATA immediately —
no RTS/CTS — provided (a) its intended receiver is not itself part of a
negotiation the stealer knows about, and (b) the data transmission fits
inside the stolen waiting window.  No check is made against any *other*
neighbour's reception (the paper's stated weakness).  The receiver of a
stolen DATA acknowledges immediately.  CS-MAC maintains two-hop neighbour
state via periodic broadcasts and carries two-hop digests in its control
packets, both charged to overhead (paper Sec. 5.3: CS-MAC's overhead
exceeds EW-MAC's because of the two-hop information).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..des.events import Event
from ..net.neighbors import TwoHopTable
from ..phy.frame import (
    CONTROL_PACKET_BITS,
    Frame,
    FrameType,
    control_frame,
    data_frame,
    safe_bits,
    safe_float,
    safe_links,
)
from ..phy.modem import Arrival
from .base import MacState, SlottedMac


@dataclass
class StealContext:
    """State of an in-flight channel steal on the stealing node."""

    target: int
    request: object
    ack_timeout: Optional[Event] = None


class CsMac(SlottedMac):
    """CS-MAC: slotted handshake + direct data stealing of waiting periods."""

    name = "CS-MAC"
    uses_two_hop_info = True
    # Two-hop digests ride on every control packet (large piggyback) and a
    # periodic two-hop maintenance broadcast keeps neighbour state fresh.
    piggyback_bits = 128
    maintenance_period_s = 120.0

    def __init__(self, sim, node, channel, timing):
        super().__init__(sim, node, channel, timing)
        self.two_hop = TwoHopTable(node.node_id)
        self._steal: Optional[StealContext] = None
        self._busy_until: Dict[int, float] = {}
        self.steals_attempted = 0
        self.steals_completed = 0

    # ------------------------------------------------------------------
    # Two-hop maintenance
    # ------------------------------------------------------------------
    def handle_neigh(self, frame: Frame, arrival: Arrival) -> None:
        links = safe_links(frame.info.get("links"))
        # Sec. 5.3: processing a two-hop announcement costs per stored link.
        self.stats.computation_units += 2.0 * len(links)
        self.two_hop.record_announcement(frame.src, links)

    def maintenance_frame_bits(self) -> int:
        # CS-MAC announces its *two-hop* view, roughly quadratic in degree.
        base = super().maintenance_frame_bits()
        return base + 16 * self.two_hop.memory_entries()

    # ------------------------------------------------------------------
    # Stealing
    # ------------------------------------------------------------------
    def on_overheard(self, frame: Frame, arrival: Arrival) -> None:
        self._note_busy(frame)
        # Any overheard negotiation opens a waiting period worth stealing
        # (an RTS reserves the grant slot; a CTS reserves the data span).
        if frame.ftype in (FrameType.CTS, FrameType.RTS):
            self._maybe_steal(frame)

    def _note_busy(self, frame: Frame) -> None:
        """Track which neighbours are committed, and until when."""
        if frame.ftype not in (FrameType.RTS, FrameType.CTS, FrameType.DATA):
            return
        self.stats.computation_units += 4.0  # schedule bookkeeping
        slot = self.timing.slot_index(frame.timestamp)
        if frame.ftype is FrameType.RTS:
            until = self.timing.slot_start(slot + 2)
        else:
            tau = safe_float(frame.pair_delay_s)
            tau = tau if tau is not None and tau >= 0 else self.timing.tau_max_s
            bits = safe_bits(frame.info.get("data_bits"), default=frame.size_bits)
            duration = max(bits, CONTROL_PACKET_BITS) / self.channel.bitrate_bps
            data_slot = slot + 1 if frame.ftype is FrameType.CTS else slot
            ack_slot = self.timing.ack_slot(data_slot, duration, tau)
            until = self.timing.ack_end_time(ack_slot)
        for node_id in (frame.src, frame.dst):
            if node_id >= 0:
                self._busy_until[node_id] = max(self._busy_until.get(node_id, 0.0), until)

    def _maybe_steal(self, overheard: Frame) -> None:
        self.stats.computation_units += 8.0  # steal feasibility check
        if self._steal is not None or self.state is not MacState.IDLE:
            return
        if self.node.modem.transmitting:
            return
        request = self.node.peek_request()
        if request is None:
            return
        target = request.dst
        # CS-MAC only reasons about the negotiation it overheard: the
        # stealer avoids the pair itself but does NOT know (or check)
        # whether the target is engaged in some other exchange — the
        # paper's "without assessing how transmission will interfere with
        # other neighbors".  At high load this is what breaks it.
        if target in (overheard.src, overheard.dst):
            return
        tau_target = self.node.neighbors.delay_to(target)
        if tau_target is None:
            return
        # The stolen window: from now until the overheard negotiation wakes
        # the neighbourhood — an RTS reserves through the grant slot, a CTS
        # through the data transfer (the span quiet neighbours observe).
        slot = self.timing.slot_index(overheard.timestamp)
        if overheard.ftype is FrameType.RTS:
            window_end = self.timing.slot_start(slot + 2)
        else:
            tau = safe_float(overheard.pair_delay_s)
            tau = tau if tau is not None and tau >= 0 else self.timing.tau_max_s
            bits = safe_bits(overheard.info.get("data_bits"))
            peer_duration = max(bits, CONTROL_PACKET_BITS) / self.channel.bitrate_bps
            window_end = self.timing.slot_start(
                self.timing.ack_slot(slot + 1, peer_duration, tau)
            )
        duration = request.size_bits / self.channel.bitrate_bps
        # CS-MAC's published condition: the stolen data must *arrive at the
        # receiver before the negotiated packet* wakes the neighbourhood.
        # The Ack round trip is not protected — acks ride on luck, which is
        # exactly the aggressiveness the paper criticizes.
        arrival_end = self.sim.now + duration + tau_target
        if arrival_end + self.guard_s > window_end:
            return
        # NOTE: deliberately *no* check against other neighbours' receive
        # windows — the paper's stated CS-MAC weakness.
        self.steals_attempted += 1
        frame = data_frame(
            self.node.node_id,
            target,
            self.sim.now,
            size_bits=request.size_bits,
            stolen=True,
            req_uid=request.uid,
        )
        self.node.modem.transmit(frame)
        self.stats.opportunistic_data_bits += request.size_bits
        context = StealContext(target=target, request=request)
        ack_deadline = (
            arrival_end + tau_target + 2.0 * self.timing.omega_s + 4.0 * self.guard_s
        )
        context.ack_timeout = self.sim.schedule_at(ack_deadline, self._on_steal_timeout)
        self._steal = context
        self.state = MacState.EXTRA

    def _on_steal_timeout(self) -> None:
        if self._steal is None:
            return
        # A failed steal consumed one of the packet's delivery attempts —
        # the data went on the air and was lost to interference.
        request = self._steal.request
        request.attempts += 1
        if request.attempts > self.max_retries:
            self.node.remove_request(request)
            self.stats.drops += 1
        self.stats.retransmitted_bits += request.size_bits
        self._steal.ack_timeout = None
        self._steal = None
        if self.state is MacState.EXTRA:
            self.state = MacState.IDLE

    # ------------------------------------------------------------------
    # Stolen-data receiver side
    # ------------------------------------------------------------------
    def handle_unexpected_data(self, frame: Frame, arrival: Arrival) -> None:
        if not frame.info.get("stolen"):
            return
        if self.state not in (MacState.IDLE, MacState.WAIT_CTS):
            return  # committed elsewhere; stealer will time out
        if self.node.modem.transmitting:
            return
        if self.register_data_reception(frame):
            self.stats.opportunistic_received += 1
            self.stats.opportunistic_received_bits += frame.size_bits
            self.node.note_delivered(frame.size_bits)
            if self.on_data_delivered is not None:
                self.on_data_delivered(self.node, frame.src, frame.size_bits)
        ack = control_frame(
            FrameType.ACK, self.node.node_id, frame.src, self.sim.now, stolen=True
        )
        self._transmit_control(ack)

    def _handle_addressed(self, frame: Frame, arrival: Arrival) -> None:  # noqa: D102
        if frame.ftype is FrameType.ACK and frame.info.get("stolen"):
            self._on_steal_ack(frame)
            return
        super()._handle_addressed(frame, arrival)

    def stop(self) -> None:  # noqa: D102 - cancel steal bookkeeping too
        super().stop()
        if self._steal is not None:
            self.sim.cancel(self._steal.ack_timeout)
            self._steal = None

    def _reset_protocol_state(self) -> None:  # noqa: D102 - crash/reboot wipe
        super()._reset_protocol_state()
        if self._steal is not None:
            self.sim.cancel(self._steal.ack_timeout)
            self._steal = None
        self._busy_until.clear()

    def _audit_protocol_state(self, violations) -> None:  # noqa: D102
        prefix = f"{self.name} node {self.node.node_id}"
        if self.state is MacState.EXTRA and self._steal is None:
            violations.append(f"{prefix}: EXTRA state without a steal context")
        if self._steal is not None and not (
            self._steal.ack_timeout is not None and self._steal.ack_timeout.pending
        ):
            violations.append(
                f"{prefix}: steal context (target {self._steal.target}) with no live Ack timeout"
            )

    def _on_steal_ack(self, frame: Frame) -> None:
        context = self._steal
        if context is None or frame.src != context.target:
            return
        self.sim.cancel(context.ack_timeout)
        self.node.remove_request(context.request)
        self.node.note_sent(context.request)
        self.steals_completed += 1
        self.stats.handshakes_completed += 1
        self._steal = None
        if self.state is MacState.EXTRA:
            self.state = MacState.IDLE
