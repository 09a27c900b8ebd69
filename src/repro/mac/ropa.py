"""ROPA — Reverse Opportunistic Packet Appending (Ng, Soh & Motani 2013).

As characterized by the paper (Secs. 2 and 5): "each sender sends the RTS
packet including the propagation delay time between the sender and
receiver.  If a neighbor of the sender intends to communicate with the
sender, then the neighbor can send an RTA packet, i.e. extra RTS, during
the wait time of the sender if the RTA packet does not interfere with the
arrival of the CTS packet."  ROPA exploits only the *sender's* waiting
resources (not the receiver's) — which is why the paper ranks its
throughput gain below CS-MAC's and EW-MAC's — and it must maintain and
periodically broadcast two-hop neighbour information, which the paper
charges to its energy and overhead accounts.

Implementation (two-phase, as in the original protocol):

1. *Request*: a neighbour *n* that overhears ``RTS(s, r)`` and has a queued
   packet whose next hop is *s* transmits ``RTA(n, s)`` timed to land
   inside s's idle window (RTS end -> CTS arrival) without touching the
   CTS.  The waiting sender records the first RTA it hears.
2. *Appended transfer*: when s's own exchange finishes (Ack received, or
   the contention failed), s polls the appender with ``ATA`` (an ACK-typed
   grant), the appender sends its DATA immediately, and s acknowledges.
   The appended transfer extends the busy period rather than running in
   parallel with it — the structural reason ROPA trails CS-MAC/EW-MAC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des.events import Event
from ..net.neighbors import TwoHopTable
from ..phy.frame import (
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
class AppendOffer:
    """Pending reverse-append state on the *waiting sender* s."""

    appender: int
    data_bits: int
    expiry: Optional[Event] = None


@dataclass
class AppendRequest:
    """Pending reverse-append state on the *appending neighbour* n."""

    target: int
    request: object
    rta_event: Optional[Event] = None
    ata_timeout: Optional[Event] = None
    ack_timeout: Optional[Event] = None


class Ropa(SlottedMac):
    """ROPA: slotted handshake + two-phase reverse appending."""

    name = "ROPA"
    uses_two_hop_info = True
    # ROPA broadcasts two-hop maintenance periodically (it needs fresh info
    # to time appends) and piggybacks neighbour info on control packets.
    piggyback_bits = 64
    maintenance_period_s = 90.0

    def __init__(self, sim, node, channel, timing):
        super().__init__(sim, node, channel, timing)
        self.two_hop = TwoHopTable(node.node_id)
        self._offer: Optional[AppendOffer] = None       # sender side
        self._appending: Optional[AppendRequest] = None  # appender side
        self.appends_attempted = 0
        self.appends_completed = 0

    # ------------------------------------------------------------------
    # Two-hop maintenance
    # ------------------------------------------------------------------
    def handle_neigh(self, frame: Frame, arrival: Arrival) -> None:
        links = safe_links(frame.info.get("links"))
        # Sec. 5.3: processing a two-hop announcement costs per stored link.
        self.stats.computation_units += 2.0 * len(links)
        self.two_hop.record_announcement(frame.src, links)

    #: ROPA announces at most this many one-hop links per maintenance
    #: broadcast: appending decisions only need the strongest (nearest)
    #: neighbours, so the digest is capped and its overhead stays the
    #: lowest of the two-hop protocols (paper Fig. 10: ROPA ~1.5x).
    DIGEST_CAP = 8

    def maintenance_frame_bits(self) -> int:
        entries = min(self.node.neighbors.memory_entries(), self.DIGEST_CAP)
        return 64 + 48 * entries

    def _send_maintenance(self) -> None:  # noqa: D102 - cap announced links
        if not self.node.modem.enabled:
            return
        if self.node.modem.transmitting or self.state is not MacState.IDLE:
            return
        from ..phy.frame import BROADCAST, Frame, FrameType

        neighbors = self.node.neighbors.neighbors()
        nearest = sorted(
            neighbors, key=lambda nid: self.node.neighbors.delay_to(nid) or 1e9
        )[: self.DIGEST_CAP]
        links = [(nid, self.node.neighbors.delay_to(nid) or 0.0) for nid in nearest]
        bits = self.maintenance_frame_bits()
        frame = Frame(
            ftype=FrameType.NEIGH,
            src=self.node.node_id,
            dst=BROADCAST,
            size_bits=bits,
            timestamp=self.sim.now,
            info={"links": links},
        )
        self.node.modem.transmit(frame)
        self.stats.maintenance_tx_bits += bits

    # ------------------------------------------------------------------
    # Appender side: RTA into the sender's wait window
    # ------------------------------------------------------------------
    def on_overheard(self, frame: Frame, arrival: Arrival) -> None:
        if frame.ftype is FrameType.RTS:
            self._maybe_request_append(frame)

    def _maybe_request_append(self, rts: Frame) -> None:
        self.stats.computation_units += 4.0  # append feasibility check
        if self._appending is not None or self.state is not MacState.IDLE:
            return
        if self.node.modem.transmitting:
            return
        sender = rts.src
        tau_sr = safe_float(rts.pair_delay_s)
        tau_ns = self.node.neighbors.delay_to(sender)
        if tau_sr is None or tau_sr < 0.0 or tau_ns is None:
            return
        request = self.node.pending_for(sender)
        if request is None:
            return
        omega = self.timing.omega_s
        guard = self.guard_s
        slot = self.timing.slot_index(rts.timestamp)
        # Sender's idle window: RTS tx end -> CTS(r,s) arrival.
        window_start = self.timing.slot_start(slot) + omega + guard
        window_end = self.timing.slot_start(slot + 1) + tau_sr - guard
        earliest = max(self.sim.now + 1e-6, window_start - tau_ns)
        latest = window_end - omega - tau_ns
        if latest < earliest:
            return
        self.appends_attempted += 1
        context = AppendRequest(target=sender, request=request)
        context.rta_event = self.sim.schedule_at(earliest, self._send_rta)
        # The grant arrives only after s's whole exchange; allow that span.
        deadline = self.sim.now + 6.0 * self.timing.slot_s
        context.ata_timeout = self.sim.schedule_at(deadline, self._on_ata_timeout)
        self._appending = context

    def _send_rta(self) -> None:
        context = self._appending
        if context is None:
            return
        context.rta_event = None
        if self.node.modem.transmitting or self.state is not MacState.IDLE:
            self._abort_append()
            return
        rta = control_frame(
            FrameType.RTA,
            self.node.node_id,
            context.target,
            self.sim.now,
            data_bits=context.request.size_bits,
        )
        self._transmit_control(rta)

    def _on_ata_timeout(self) -> None:
        if self._appending is None:
            return
        self._appending.ata_timeout = None
        self._abort_append()

    def _abort_append(self) -> None:
        context = self._appending
        if context is not None:
            for event in (context.rta_event, context.ata_timeout, context.ack_timeout):
                self.sim.cancel(event)
        self._appending = None

    def _on_ata_received(self, frame: Frame) -> None:
        """Grant arrived: transmit the appended DATA right away."""
        context = self._appending
        if context is None or frame.src != context.target:
            return
        self.sim.cancel(context.ata_timeout)
        context.ata_timeout = None
        if (
            self.state is not MacState.IDLE
            or self.node.modem.transmitting
            or context.request not in self.node.queue
        ):
            self._abort_append()
            return
        data = data_frame(
            self.node.node_id,
            context.target,
            self.sim.now,
            size_bits=context.request.size_bits,
            appended=True,
            req_uid=context.request.uid,
        )
        self.node.modem.transmit(data)
        self.stats.opportunistic_data_bits += context.request.size_bits
        tau = self.node.neighbors.delay_to(context.target) or self.timing.tau_max_s
        duration = context.request.size_bits / self.channel.bitrate_bps
        deadline = (
            self.sim.now + duration + 2.0 * tau
            + 3.0 * self.timing.omega_s + 4.0 * self.guard_s
        )
        context.ack_timeout = self.sim.schedule_at(deadline, self._on_append_ack_timeout)

    def _on_append_ack_timeout(self) -> None:
        if self._appending is None:
            return
        self._appending.ack_timeout = None
        self._abort_append()

    def _on_append_ack(self, frame: Frame) -> None:
        context = self._appending
        if context is None or frame.src != context.target:
            return
        self.sim.cancel(context.ack_timeout)
        self.node.remove_request(context.request)
        self.node.note_sent(context.request)
        self.appends_completed += 1
        self.stats.handshakes_completed += 1
        self._appending = None

    # ------------------------------------------------------------------
    # Waiting-sender side: record RTA, grant after the primary exchange
    # ------------------------------------------------------------------
    def handle_protocol_frame(self, frame: Frame, arrival: Arrival) -> None:
        if frame.ftype is FrameType.RTA:
            if self._offer is None and self.state in (
                MacState.WAIT_CTS,
                MacState.WAIT_SEND_DATA,
                MacState.WAIT_ACK,
            ):
                offer = AppendOffer(
                    appender=frame.src,
                    data_bits=safe_bits(frame.info.get("data_bits"), default=0, minimum=0),
                )
                offer.expiry = self.sim.schedule(
                    8.0 * self.timing.slot_s, self._expire_offer
                )
                self._offer = offer
            return
        if frame.ftype is FrameType.ACK and frame.info.get("ata"):
            self._on_ata_received(frame)
            return
        if frame.ftype is FrameType.ACK and frame.info.get("appended"):
            self._on_append_ack(frame)

    def _handle_addressed(self, frame: Frame, arrival: Arrival) -> None:  # noqa: D102
        if frame.ftype is FrameType.ACK and frame.info.get("ata"):
            self._on_ata_received(frame)
            return
        if frame.ftype is FrameType.ACK and frame.info.get("appended"):
            self._on_append_ack(frame)
            return
        super()._handle_addressed(frame, arrival)

    def _expire_offer(self) -> None:
        self._offer = None

    def _grant_offer_if_any(self) -> None:
        """Primary exchange over: poll the recorded appender."""
        offer = self._offer
        if offer is None:
            return
        self._offer = None
        self.sim.cancel(offer.expiry)
        if self.node.modem.transmitting:
            return
        ata = control_frame(
            FrameType.ACK, self.node.node_id, offer.appender, self.sim.now, ata=True
        )
        self._transmit_control(ata)

    def _complete_send(self) -> None:  # noqa: D102
        super()._complete_send()
        self._grant_offer_if_any()

    def contention_failed(self) -> None:  # noqa: D102
        super().contention_failed()
        self._grant_offer_if_any()

    def handle_unexpected_data(self, frame: Frame, arrival: Arrival) -> None:
        """The appended DATA arrived after our ATA poll: deliver and ack."""
        if not frame.info.get("appended"):
            return
        if self.register_data_reception(frame):
            self.stats.opportunistic_received += 1
            self.stats.opportunistic_received_bits += frame.size_bits
            self.node.note_delivered(frame.size_bits)
            if self.on_data_delivered is not None:
                self.on_data_delivered(self.node, frame.src, frame.size_bits)
        if self.node.modem.transmitting:
            return  # appender retries through the normal path
        ack = control_frame(
            FrameType.ACK, self.node.node_id, frame.src, self.sim.now, appended=True
        )
        self._transmit_control(ack)

    def stop(self) -> None:  # noqa: D102
        super().stop()
        self._abort_append()
        if self._offer is not None:
            self.sim.cancel(self._offer.expiry)
            self._offer = None

    def _reset_protocol_state(self) -> None:  # noqa: D102 - crash/reboot wipe
        super()._reset_protocol_state()
        self._abort_append()
        if self._offer is not None:
            self.sim.cancel(self._offer.expiry)
            self._offer = None

    def _audit_protocol_state(self, violations) -> None:  # noqa: D102
        prefix = f"{self.name} node {self.node.node_id}"
        context = self._appending
        if context is not None and not any(
            event is not None and event.pending
            for event in (context.rta_event, context.ata_timeout, context.ack_timeout)
        ):
            violations.append(
                f"{prefix}: append request (target {context.target}) with no live event"
            )
        if self._offer is not None and not (
            self._offer.expiry is not None and self._offer.expiry.pending
        ):
            violations.append(
                f"{prefix}: append offer (appender {self._offer.appender}) with no live expiry"
            )
