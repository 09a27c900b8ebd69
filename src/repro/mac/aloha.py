"""Slotted ALOHA baseline (extension beyond the paper).

Not part of the paper's comparison set, but a useful lower anchor: no
negotiation at all — a node with queued data transmits the data packet
directly at a slot boundary (with persistence probability ``p_tx``) and
waits for an Ack in the Eq. (5) slot.  Underwater, the lack of a
reservation means data packets collide at rates that grow quickly with
load, which is exactly why the literature (and the paper) builds on
RTS/CTS handshakes; the benchmark suite includes ALOHA in the ablation
sweeps to make that trade-off measurable.

ALOHA is also the *perfectly synchronized* reference: only its first tick
is placed by the node's clock (``SlottedMac.start``); every later tick
re-arms at ``timing.slot_start(index + 1)`` on the global grid, so
``clock_offset_std_s``, clock drift and clock faults move at most that
first tick.  The other MACs keep following their node's clock, so in
clock-skew and clock-fault cells ALOHA shows what slot alignment is worth.
"""

from __future__ import annotations

from ..phy.frame import Frame, FrameType, data_frame
from ..phy.modem import Arrival
from .base import MacState, SlottedMac


class SlottedAloha(SlottedMac):
    """Direct-data slotted ALOHA with Ack + binary exponential backoff."""

    name = "ALOHA"
    uses_two_hop_info = False
    requires_neighbor_info = False

    #: Persistence probability for a head-of-line packet each slot.
    p_tx = 0.5

    def _slot_tick(self, index: int) -> None:
        """One slot boundary; the next one is armed on the global grid."""
        self._slot_event = self.sim.schedule_at(
            self.timing.slot_start(index + 1), self._slot_tick, index + 1
        )
        if self._ack_due_slot == index:
            self._send_ack()
            return
        if self.state is not MacState.IDLE or not self.node.has_pending_data:
            return
        if self.node.modem.transmitting:
            return
        if self._backoff_slots > 0:
            self._backoff_slots -= 1
            return
        if float(self._rng.random()) > self.p_tx:
            return
        self._transmit_head(index)

    def _transmit_head(self, index: int) -> None:
        request = self.node.peek_request()
        assert request is not None
        self._current_request = request
        self._target = request.dst
        request.attempts += 1
        frame = data_frame(
            self.node.node_id,
            request.dst,
            self.sim.now,
            size_bits=request.size_bits,
            req_uid=request.uid,
        )
        self.node.modem.transmit(frame)
        self.stats.data_sent_bits += request.size_bits
        if request.attempts > 1:
            self.stats.retransmitted_bits += request.size_bits
        self.state = MacState.WAIT_ACK
        tau = self.node.neighbors.delay_to(request.dst)
        tau = tau if tau is not None else self.timing.tau_max_s
        duration = request.size_bits / self.channel.bitrate_bps
        ack_slot = self.timing.ack_slot(index, duration, tau)
        deadline = self.timing.ack_end_time(ack_slot) + self.guard_s
        self._ack_timeout = self.sim.schedule_at(deadline, self._on_ack_timeout)

    def _handle_addressed(self, frame: Frame, arrival: Arrival) -> None:  # noqa: D102
        if frame.ftype is FrameType.DATA:
            # accept direct data while idle (an own exchange in flight would
            # be clobbered by the ack bookkeeping; the sender just retries)
            if self._ack_due_slot is None and self.state is MacState.IDLE:
                if self.register_data_reception(frame):
                    self.stats.data_received += 1
                    self.stats.data_received_bits += frame.size_bits
                    self.node.note_delivered(frame.size_bits)
                    if self.on_data_delivered is not None:
                        self.on_data_delivered(self.node, frame.src, frame.size_bits)
                data_slot = self.timing.slot_index(frame.timestamp)
                duration = frame.size_bits / self.channel.bitrate_bps
                self._ack_due_slot = self.timing.ack_slot(
                    data_slot, duration, arrival.delay_s
                )
                self._ack_dst = frame.src
            return
        if frame.ftype is FrameType.ACK:
            if self.state is MacState.WAIT_ACK and frame.src == self._target:
                self._complete_send()
            return
        # ALOHA ignores RTS/CTS and friends entirely

    def _handle_overheard(self, frame: Frame, arrival: Arrival) -> None:  # noqa: D102
        pass  # no NAV: ALOHA does not defer to anyone
