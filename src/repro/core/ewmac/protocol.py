"""EW-MAC: the paper's "Exploit Waiting" MAC protocol (Sec. 4).

EW-MAC is the shared slotted four-way-handshake engine plus the paper's
contribution: when sensor *i* loses a contention (it sent ``RTS(i,j)`` but
overhears ``CTS(j,k)`` or ``RTS(j,k)``), it negotiates an **extra
communication** inside the waiting periods of j's negotiated exchange:

1. *Request phase* — i sends ``EXR(i,j)`` timed to land in j's idle window
   (after j's CTS and before Data(k,j) arrives, or after j's RTS and before
   CTS(k,j) arrives); j replies ``EXC(j,i)`` iff the extra traffic cannot
   disturb its negotiated exchange or any neighbour j knows to be busy.
2. *Transfer phase* — i sends ``EXData(i,j)`` at the Eq. (6) instant
   ``ts(Ack_jk)·|ts| + ω − τ_ij`` so its leading edge reaches j exactly as
   j finishes transmitting ``Ack(j,k)`` (or, when j was the sender, right
   after j finishes *receiving* its Ack); j closes with ``EXAck(j,i)``.

Every off-slot transmission is checked against the sender's
:class:`~repro.core.ewmac.schedule.NeighborScheduleTracker` so it cannot
hit the protected reception windows of other known-busy neighbours (paper:
"the extra communication must not interfere with negotiated
communications").

EW-MAC maintains only one-hop propagation delays, learned passively from
the timestamp in every frame — its overhead edge over ROPA/CS-MAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ...des.events import Event
from ...mac.base import MacState, SlottedMac
from ...phy.frame import (
    CONTROL_PACKET_BITS,
    Frame,
    FrameType,
    control_frame,
    data_frame,
    safe_bits,
    safe_float,
)
from ...phy.modem import Arrival
from .schedule import NeighborScheduleTracker
from .states import EwState, Fig3StateMachine


class ExtraCase(Enum):
    """Role of the busy target j in its negotiated exchange."""

    TARGET_IS_RECEIVER = "receiver"  # i overheard CTS(j, k)
    TARGET_IS_SENDER = "sender"      # i overheard RTS(j, k)


@dataclass
class AskingContext:
    """State of an in-flight extra request on the asking sensor i."""

    target: int
    case: ExtraCase
    tau_ij: float
    ack_slot: int
    exr_send_time: float
    exdata_start: float
    data_bits: int
    exchange_end: float
    exr_event: Optional[Event] = None
    exc_timeout: Optional[Event] = None
    exack_timeout: Optional[Event] = None
    exdata_event: Optional[Event] = None


@dataclass
class AskedContext:
    """State on the asked sensor j after granting an EXC."""

    peer: int
    exdata_start: float
    data_bits: int
    expiry_event: Optional[Event] = None


@dataclass
class ExtraStats:
    """EW-MAC-specific counters."""

    requested: int = 0
    granted_received: int = 0
    grants_issued: int = 0
    denied: int = 0
    completed: int = 0
    given_up: int = 0
    plan_failures: Dict[str, int] = field(default_factory=dict)
    deny_reasons: Dict[str, int] = field(default_factory=dict)
    give_up_reasons: Dict[str, int] = field(default_factory=dict)

    def note_plan_failure(self, reason: str) -> None:
        self.plan_failures[reason] = self.plan_failures.get(reason, 0) + 1

    def note_denial(self, reason: str) -> None:
        self.denied += 1
        self.deny_reasons[reason] = self.deny_reasons.get(reason, 0) + 1


class EwMac(SlottedMac):
    """The paper's EW-MAC protocol."""

    name = "EW-MAC"
    uses_two_hop_info = False
    # Every EW-MAC packet piggybacks the timestamp + pair-delay (+ extra
    # scheduling) fields (paper Sec. 4.3); accounted as 64 bits of overhead
    # per control frame.
    piggyback_bits = 64

    def __init__(
        self,
        sim,
        node,
        channel,
        timing,
        exr_randomize: bool = True,
    ):
        super().__init__(sim, node, channel, timing)
        #: Randomize the EXR send instant inside the feasible window (design
        #: choice studied by the abl-exr-randomization ablation; True keeps
        #: same-round losers from colliding at the shared busy neighbour).
        self.exr_randomize = exr_randomize
        self.tracker = NeighborScheduleTracker(node.node_id)
        self.fig3 = Fig3StateMachine(strict=False)
        self.extra_stats = ExtraStats()
        self._asking: Optional[AskingContext] = None
        self._asked: Optional[AskedContext] = None
        self._cts_slot: Optional[int] = None  # slot in which we sent our CTS

    # ------------------------------------------------------------------
    # Fig. 3 bookkeeping
    # ------------------------------------------------------------------
    def _fig3(self, to: EwState) -> None:
        if self.fig3.can_transition(to):
            self.fig3.transition(to, self.sim.now)
            return
        # Lenient two-step through Idle (e.g. Quiet -> Idle -> Waiting CTS).
        if self.fig3.can_transition(EwState.IDLE) and to is not EwState.IDLE:
            self.fig3.transition(EwState.IDLE, self.sim.now)
        self.fig3.transition(to, self.sim.now)

    # ------------------------------------------------------------------
    # Base-engine integration points
    # ------------------------------------------------------------------
    def _send_rts(self, index: int) -> None:  # noqa: D102 - engine override
        super()._send_rts(index)
        self._fig3(EwState.WAITING_CTS)

    def _grant(self, candidates, index: int) -> None:  # noqa: D102
        self._fig3(EwState.CHECKING_SCHEDULING)
        super()._grant(candidates, index)
        self._cts_slot = index
        if self.state is MacState.WAIT_DATA:
            self._fig3(EwState.WAITING_DATA)
        else:
            self._fig3(EwState.IDLE)

    def _receive_data(self, frame: Frame, arrival: Arrival) -> None:  # noqa: D102
        super()._receive_data(frame, arrival)
        self._fig3(EwState.CHECKING_DATA)

    def _send_ack(self) -> None:  # noqa: D102
        super()._send_ack()
        if self._asked is None:
            self._fig3(EwState.IDLE)

    def _complete_send(self) -> None:  # noqa: D102
        super()._complete_send()
        self._fig3(EwState.IDLE)

    def _handle_addressed(self, frame: Frame, arrival: Arrival) -> None:  # noqa: D102
        if (
            frame.ftype is FrameType.CTS
            and self.state is MacState.WAIT_CTS
            and frame.src == self._target
        ):
            self._fig3(EwState.WAITING_ACK)
        super()._handle_addressed(frame, arrival)

    def contention_failed(self) -> None:  # noqa: D102
        super().contention_failed()
        self._fig3(EwState.IDLE)

    # ------------------------------------------------------------------
    # Extra communication: asking side (sensor i)
    # ------------------------------------------------------------------
    def on_contention_lost(self, target: int, frame: Frame, arrival: Arrival) -> None:
        """Try the paper's extra-communication path before backing off."""
        self._update_tracker(frame)
        context = self._plan_extra_request(target, frame)
        if context is None:
            self.contention_failed()
            return
        self._asking = context
        self.state = MacState.EXTRA
        self._fig3(EwState.ASKING_EXTRA)
        self.extra_stats.requested += 1
        context.exr_event = self.sim.schedule_at(context.exr_send_time, self._send_exr)

    def _plan_extra_request(self, target: int, frame: Frame) -> Optional[AskingContext]:
        """Compute EXR/EXData timing; None if the windows are infeasible."""
        self.stats.computation_units += 64.0  # feasibility computation
        request = self._current_request
        if request is None:
            self.extra_stats.note_plan_failure("no_request")
            return None
        tau_ij = self.node.neighbors.delay_to(target)
        tau_jk = safe_float(frame.pair_delay_s)
        if tau_ij is None or tau_jk is None or tau_jk < 0.0:
            self.extra_stats.note_plan_failure("unknown_delay")
            return None
        peer_bits = safe_bits(frame.info.get("data_bits"), default=0, minimum=1)
        if peer_bits <= 0:
            self.extra_stats.note_plan_failure("no_peer_bits")
            return None
        guard = self.guard_s
        omega = self.timing.omega_s
        peer_duration = peer_bits / self.channel.bitrate_bps
        frame_slot = self.timing.slot_index(frame.timestamp)
        if frame.ftype is FrameType.CTS:
            case = ExtraCase.TARGET_IS_RECEIVER
            # j's idle window: CTS tx end -> Data(k,j) arrival (period V).
            window_start = self.timing.slot_start(frame_slot) + omega + guard
            window_end = self.timing.slot_start(frame_slot + 1) + tau_jk - guard
            ack_slot = self.timing.ack_slot(frame_slot + 1, peer_duration, tau_jk)
            # Eq. (6): EXData reaches j right as its Ack transmission ends
            # (plus a guard so measurement jitter cannot overlap the Ack).
            exdata_start = self.timing.exdata_start_time(ack_slot, tau_ij) + guard
        elif frame.ftype is FrameType.RTS:
            case = ExtraCase.TARGET_IS_SENDER
            # j's idle window: RTS tx end -> CTS(k,j) arrival (period III).
            window_start = self.timing.slot_start(frame_slot) + omega + guard
            window_end = self.timing.slot_start(frame_slot + 1) + tau_jk - guard
            ack_slot = self.timing.ack_slot(frame_slot + 2, peer_duration, tau_jk)
            # EXData reaches j right after j finishes receiving Ack(k,j).
            exdata_arrival = self.timing.slot_start(ack_slot) + tau_jk + omega + guard
            exdata_start = exdata_arrival - tau_ij
        else:
            return None
        # EXR must fully arrive inside j's idle window, early enough that j
        # can also fit its EXC reply (one more omega) before the window
        # closes — otherwise j would have to deny the request.  The send
        # instant is randomized inside the feasible span: several losers of
        # the same contention round all ask the same j, and deterministic
        # earliest-instant sends would collide at j every time.
        earliest_send = max(self.sim.now + 1e-6, window_start - tau_ij)
        latest_send = window_end - 2.0 * omega - guard - tau_ij
        if latest_send < earliest_send:
            self.extra_stats.note_plan_failure(f"exr_window_{frame.ftype.value}")
            return None
        jitter = float(self._rng.random()) if self.exr_randomize else 0.0
        start = earliest_send + jitter * (latest_send - earliest_send)
        send_time = self._find_safe_send(start, latest_send, omega, target)
        if send_time is None:
            send_time = self._find_safe_send(earliest_send, latest_send, omega, target)
        if send_time is None:
            self.extra_stats.note_plan_failure(f"exr_window_{frame.ftype.value}")
            return None
        if exdata_start <= send_time + omega:
            self.extra_stats.note_plan_failure("exdata_before_exr")
            return None
        # The EXData itself must not hit other busy neighbours either.
        my_duration = request.size_bits / self.channel.bitrate_bps
        if not self.tracker.is_send_safe(
            exdata_start, my_duration, self._known_delays(), exclude=(target,)
        ):
            self.extra_stats.note_plan_failure("exdata_unsafe")
            return None
        return AskingContext(
            target=target,
            case=case,
            tau_ij=tau_ij,
            ack_slot=ack_slot,
            exr_send_time=send_time,
            exdata_start=exdata_start,
            data_bits=request.size_bits,
            exchange_end=self.timing.ack_end_time(ack_slot),
        )

    def _find_safe_send(
        self, earliest: float, latest: float, duration: float, peer: int
    ) -> Optional[float]:
        """First instant in [earliest, latest] that is tracker-safe.

        On a conflict, jumps directly past the latest blocking protected
        window instead of stepping blindly.
        """
        if latest < earliest:
            return None
        self.tracker.purge(self.sim.now)
        delays = self._known_delays()
        candidate = earliest
        for _ in range(8):
            if candidate > latest:
                return None
            conflicts = self.tracker.blocking_conflicts(
                candidate, duration, delays, exclude=(peer,)
            )
            if not conflicts:
                return candidate
            # Send just late enough that the arrival at each conflicting
            # neighbour clears its protected window.
            candidate = max(
                window.end - delays[node_id] for node_id, window in conflicts
            ) + self.guard_s
        return None

    def _known_delays(self) -> Dict[int, float]:
        return {
            nid: self.node.neighbors.delay_to(nid)
            for nid in self.node.neighbors.neighbors()
        }

    def _send_exr(self) -> None:
        context = self._asking
        if context is None:
            return
        context.exr_event = None
        if self.node.modem.transmitting:
            self._give_up_extra("modem_busy_at_exr")
            return
        frame = control_frame(
            FrameType.EXR,
            self.node.node_id,
            context.target,
            self.sim.now,
            pair_delay_s=context.tau_ij,
            data_bits=context.data_bits,
            exdata_start=context.exdata_start,
            case=context.case.value,
        )
        self._transmit_control(frame)
        # Paper: i waits "twice the propagation time" for the EXC — plus the
        # on-air time of the EXR and EXC themselves and a deferral margin.
        deadline = (
            self.sim.now
            + 2.0 * context.tau_ij
            + 3.0 * self.timing.omega_s
            + 4.0 * self.guard_s
        )
        context.exc_timeout = self.sim.schedule_at(deadline, self._on_exc_timeout)

    def _on_exc_timeout(self) -> None:
        if self._asking is None:
            return
        self._asking.exc_timeout = None
        self._give_up_extra("exc_timeout")

    def _give_up_extra(self, reason: str = "unspecified") -> None:
        """Paper: give up the extra transmission and return to Quiet."""
        context = self._asking
        if context is None:
            return
        self.extra_stats.give_up_reasons[reason] = (
            self.extra_stats.give_up_reasons.get(reason, 0) + 1
        )
        for event in (context.exr_event, context.exc_timeout, context.exack_timeout, context.exdata_event):
            self.sim.cancel(event)
        self._asking = None
        self.extra_stats.given_up += 1
        self._set_quiet(context.exchange_end)
        self._fig3(EwState.QUIET)
        self._reset_to_idle(backoff=True)
        self._fig3(EwState.IDLE)

    def _on_exc_received(self, frame: Frame) -> None:
        context = self._asking
        if context is None or frame.src != context.target:
            return
        self.sim.cancel(context.exc_timeout)
        context.exc_timeout = None
        self.extra_stats.granted_received += 1
        # j may have adjusted the transfer instant; trust the grant.
        granted_start = safe_float(frame.info.get("exdata_start"))
        if granted_start is None:
            granted_start = context.exdata_start
        context.exdata_start = max(granted_start, self.sim.now + 1e-6)
        context.exdata_event = self.sim.schedule_at(
            context.exdata_start, self._send_exdata
        )

    def _send_exdata(self) -> None:
        context = self._asking
        if context is None:
            return
        context.exdata_event = None
        request = self._current_request
        if request is None or self.node.modem.transmitting:
            self._give_up_extra("modem_busy_at_exdata")
            return
        frame = data_frame(
            self.node.node_id,
            context.target,
            self.sim.now,
            size_bits=request.size_bits,
            extra=True,
            req_uid=request.uid,
        )
        self.node.modem.transmit(frame)
        self.stats.opportunistic_data_bits += request.size_bits
        duration = request.size_bits / self.channel.bitrate_bps
        deadline = (
            self.sim.now + duration + 2.0 * context.tau_ij
            + 3.0 * self.timing.omega_s + 4.0 * self.guard_s
        )
        context.exack_timeout = self.sim.schedule_at(deadline, self._on_exack_timeout)

    def _on_exack_timeout(self) -> None:
        if self._asking is None:
            return
        self._asking.exack_timeout = None
        self._give_up_extra("exack_timeout")

    def _on_exack_received(self, frame: Frame) -> None:
        context = self._asking
        if context is None or frame.src != context.target:
            return
        self.sim.cancel(context.exack_timeout)
        request = self._current_request
        if request is not None:
            self.node.remove_request(request)
            self.node.note_sent(request)
        self._current_request = None
        self._asking = None
        self.extra_stats.completed += 1
        self.stats.handshakes_completed += 1
        self._cw = self.cw_min
        self._reset_to_idle(backoff=False)
        self._fig3(EwState.IDLE)

    # ------------------------------------------------------------------
    # Extra communication: asked side (sensor j)
    # ------------------------------------------------------------------
    def handle_protocol_frame(self, frame: Frame, arrival: Arrival) -> None:
        if frame.ftype is FrameType.EXR:
            self._on_exr_received(frame, arrival)
        elif frame.ftype is FrameType.EXC:
            self._on_exc_received(frame)
        elif frame.ftype is FrameType.EXDATA:
            self._on_exdata_received(frame, arrival)
        elif frame.ftype is FrameType.EXACK:
            self._on_exack_received(frame)

    def _own_busy_intervals(self) -> List[Tuple[float, float]]:
        """Intervals during which this node's antenna is committed."""
        intervals: List[Tuple[float, float]] = []
        omega = self.timing.omega_s
        bitrate = self.channel.bitrate_bps
        if self.state is MacState.WAIT_DATA and self._cts_slot is not None:
            # Receiver: Data(k,j) arrives tau after slot cts+1; Ack at Eq. 5.
            tau = self._grant_tau
            duration = max(self._grant_data_bits, CONTROL_PACKET_BITS) / bitrate
            data_start = self.timing.slot_start(self._cts_slot + 1) + tau
            intervals.append((data_start, data_start + duration))
            ack_slot = self.timing.ack_slot(self._cts_slot + 1, duration, tau)
            ack_start = self.timing.slot_start(ack_slot)
            intervals.append((ack_start, ack_start + omega))
        if self.state in (MacState.WAIT_CTS, MacState.WAIT_SEND_DATA) and self._rts_slot is not None:
            request = self._current_request
            bits = request.size_bits if request is not None else CONTROL_PACKET_BITS
            duration = bits / bitrate
            tau = self.node.neighbors.delay_to(self._target) if self._target is not None else None
            tau = tau if tau is not None else self.timing.tau_max_s
            cts_start = self.timing.slot_start(self._rts_slot + 1) + tau
            intervals.append((cts_start, cts_start + omega))
            data_start = self.timing.slot_start(self._rts_slot + 2)
            intervals.append((data_start, data_start + duration))
            ack_slot = self.timing.ack_slot(self._rts_slot + 2, duration, tau)
            ack_start = self.timing.slot_start(ack_slot) + tau
            intervals.append((ack_start, ack_start + omega))
        if self._ack_due_slot is not None:
            ack_start = self.timing.slot_start(self._ack_due_slot)
            intervals.append((ack_start, ack_start + omega))
        return intervals

    def _on_exr_received(self, frame: Frame, arrival: Arrival) -> None:
        if self._asked is not None:
            return  # one extra peer at a time
        peer = frame.src
        tau_peer = arrival.delay_s
        bits = safe_bits(frame.info.get("data_bits"), default=0, minimum=1)
        exdata_start = safe_float(frame.info.get("exdata_start"))
        if bits <= 0 or exdata_start is None or exdata_start < self.sim.now - 1e-6:
            return
        guard = self.guard_s
        omega = self.timing.omega_s
        duration = bits / self.channel.bitrate_bps
        exdata_window = (exdata_start + tau_peer, exdata_start + tau_peer + duration)
        exack_end = exdata_window[1] + omega + guard
        busy = self._own_busy_intervals()
        # 1. The extra transfer must miss every committed interval.  Strict
        # inequality: Eq. (6) schedules the EXData to start exactly when the
        # Ack transmission ends, and adjacency is safe.
        for start, end in busy:
            if start < exack_end and end > exdata_window[0]:
                self.extra_stats.note_denial("exdata_overlaps_exchange")
                return
        # 2. The EXC reply must fit before our next committed instant and
        #    must not disturb other busy neighbours we know about.
        exc_end = self.sim.now + omega + guard
        for start, end in busy:
            if start < exc_end and end > self.sim.now:
                self.extra_stats.note_denial("no_room_for_exc")
                return
        if self.node.modem.transmitting:
            self.extra_stats.note_denial("modem_busy")
            return
        self.tracker.purge(self.sim.now)
        if not self.tracker.is_send_safe(
            self.sim.now, omega, self._known_delays(), exclude=(peer,)
        ):
            self.extra_stats.note_denial("exc_unsafe_for_neighbors")
            return
        reply = control_frame(
            FrameType.EXC,
            self.node.node_id,
            peer,
            self.sim.now,
            pair_delay_s=tau_peer,
            exdata_start=float(exdata_start),
            data_bits=bits,
        )
        self._transmit_control(reply)
        self.extra_stats.grants_issued += 1
        context = AskedContext(peer=peer, exdata_start=float(exdata_start), data_bits=bits)
        context.expiry_event = self.sim.schedule_at(
            exdata_window[1] + self.timing.slot_s, self._on_asked_expired
        )
        self._asked = context
        # Having granted, j must keep its antenna free until the extra
        # transfer (EXData + its EXAck) is over: no new grants or RTSs.
        self._set_quiet(exdata_window[1] + omega + 2.0 * guard)
        self._fig3(EwState.ASKED_EXTRA)

    def _on_asked_expired(self) -> None:
        if self._asked is None:
            return
        self._asked = None
        if self.state is MacState.IDLE:
            self._fig3(EwState.IDLE)

    def _on_exdata_received(self, frame: Frame, arrival: Arrival) -> None:
        context = self._asked
        if context is None or frame.src != context.peer:
            return
        self.sim.cancel(context.expiry_event)
        self._asked = None
        if self.register_data_reception(frame):
            self.stats.opportunistic_received += 1
            self.stats.opportunistic_received_bits += frame.size_bits
            self.node.note_delivered(frame.size_bits)
            if self.on_data_delivered is not None:
                self.on_data_delivered(self.node, frame.src, frame.size_bits)
        self._send_exack(frame.src)

    def _send_exack(self, dst: int) -> None:
        if not self.node.modem.enabled:
            return  # died between the EXData and this (possibly rescheduled) reply
        if self.node.modem.transmitting:
            self.sim.schedule(self.timing.omega_s, self._send_exack, dst)
            return
        frame = control_frame(FrameType.EXACK, self.node.node_id, dst, self.sim.now)
        self._transmit_control(frame)
        if self.state is MacState.IDLE:
            self._fig3(EwState.IDLE)

    # ------------------------------------------------------------------
    # Overhearing: schedule tracking + paper's quiet rules
    # ------------------------------------------------------------------
    def on_overheard(self, frame: Frame, arrival: Arrival) -> None:
        self._update_tracker(frame)
        if frame.ftype is FrameType.HELLO:
            return
        if self.fig3.state is EwState.IDLE and not frame.ftype.is_extra:
            self._fig3(EwState.QUIET)

    def _update_tracker(self, frame: Frame) -> None:
        """Derive protected reception windows from an overheard frame."""
        # Sec. 5.3 overhead: "the cost of accessing neighboring information"
        # — every overheard negotiation triggers schedule bookkeeping.
        self.stats.computation_units += 32.0
        self.tracker.purge(self.sim.now)
        omega = self.timing.omega_s
        tau_max = self.timing.tau_max_s
        bitrate = self.channel.bitrate_bps
        slot = self.timing.slot_index(frame.timestamp)
        if frame.ftype is FrameType.RTS:
            # The RTS sender must cleanly receive a CTS during slot+1.
            cts_window_start = self.timing.slot_start(slot + 1)
            self.tracker.protect(
                frame.src, cts_window_start, cts_window_start + tau_max + omega, "cts-rx"
            )
            pair_delay = safe_float(frame.pair_delay_s)
            if pair_delay is not None and pair_delay >= 0.0:
                bits = safe_bits(frame.info.get("data_bits"))
                duration = bits / bitrate
                data_start = self.timing.slot_start(slot + 2) + pair_delay
                self.tracker.protect(frame.dst, data_start, data_start + duration, "data-rx")
        elif frame.ftype is FrameType.CTS:
            tau = safe_float(frame.pair_delay_s)
            tau = tau if tau is not None and tau >= 0 else tau_max
            bits = safe_bits(frame.info.get("data_bits"))
            duration = bits / bitrate
            data_start = self.timing.slot_start(slot + 1) + tau
            self.tracker.protect(frame.src, data_start, data_start + duration, "data-rx")
            ack_slot = self.timing.ack_slot(slot + 1, duration, tau)
            ack_arrival = self.timing.slot_start(ack_slot) + tau
            self.tracker.protect(frame.dst, ack_arrival, ack_arrival + omega, "ack-rx")
        elif frame.ftype is FrameType.DATA:
            duration = frame.size_bits / bitrate
            self.tracker.protect(
                frame.dst, frame.timestamp, frame.timestamp + tau_max + duration, "data-rx"
            )
            ack_slot = self.timing.ack_slot(slot, duration, tau_max)
            ack_arrival = self.timing.slot_start(ack_slot)
            self.tracker.protect(
                frame.src, ack_arrival, ack_arrival + tau_max + omega, "ack-rx"
            )
        elif frame.ftype is FrameType.EXC:
            exdata_start = safe_float(frame.info.get("exdata_start"))
            bits = safe_bits(frame.info.get("data_bits"))
            if exdata_start is not None and exdata_start >= 0.0:
                duration = bits / bitrate
                self.tracker.protect(
                    frame.src,
                    float(exdata_start),
                    float(exdata_start) + tau_max + duration + omega,
                    "exdata-rx",
                )
        elif frame.ftype is FrameType.EXR:
            # The asking sensor must cleanly receive the EXC reply.
            self.tracker.protect(
                frame.src, self.sim.now, self.sim.now + 2.0 * tau_max + omega, "exc-rx"
            )

    def stop(self) -> None:  # noqa: D102 - cancel extra-phase events too
        super().stop()
        for context in (self._asking,):
            if context is not None:
                for event in (
                    context.exr_event,
                    context.exc_timeout,
                    context.exack_timeout,
                    context.exdata_event,
                ):
                    self.sim.cancel(event)
        if self._asked is not None:
            self.sim.cancel(self._asked.expiry_event)

    def _reset_protocol_state(self) -> None:  # noqa: D102 - crash/reboot wipe
        super()._reset_protocol_state()
        context = self._asking
        if context is not None:
            for event in (
                context.exr_event,
                context.exc_timeout,
                context.exack_timeout,
                context.exdata_event,
            ):
                self.sim.cancel(event)
        self._asking = None
        if self._asked is not None:
            self.sim.cancel(self._asked.expiry_event)
        self._asked = None
        self._cts_slot = None
        # A reboot restarts the Fig. 3 machine from Idle.
        self.fig3 = Fig3StateMachine(strict=False)

    def _audit_protocol_state(self, violations: List[str]) -> None:
        prefix = f"{self.name} node {self.node.node_id}"
        if self.state is MacState.EXTRA and self._asking is None:
            violations.append(f"{prefix}: EXTRA state without an asking context")
        context = self._asking
        if context is not None and not any(
            event is not None and event.pending
            for event in (
                context.exr_event,
                context.exc_timeout,
                context.exack_timeout,
                context.exdata_event,
            )
        ):
            violations.append(
                f"{prefix}: asking context (target {context.target}) with no live event"
            )
        if self._asked is not None and not (
            self._asked.expiry_event is not None and self._asked.expiry_event.pending
        ):
            violations.append(
                f"{prefix}: asked context (peer {self._asked.peer}) with no live expiry"
            )
