"""Shared slotted four-way-handshake MAC engine.

All four evaluated protocols (S-FAMA, ROPA, CS-MAC, EW-MAC) are slotted
RTS/CTS/Data/Ack protocols over the same grid (paper Sec. 5: "we rewrite
the MAC model based on CW-MAC which is a slotted contention MAC protocol").
This module implements that common engine once:

* slot ticks on the synchronized grid ``|ts| = omega + tau_max``;
* sender side: contention with binary-exponential backoff, RTS carrying the
  paper's random priority value ``rp``, CTS wait, Data at ``rts_slot + 2``,
  Ack wait, retransmission and drop policy;
* receiver side: RTS collection over a slot, highest-``rp`` grant (paper
  Sec. 3.1), Data wait, Ack at the Eq. (5) slot;
* overhearing: quiet (NAV) bookkeeping from others' negotiation frames, and
  passive one-hop delay maintenance from every frame's timestamp (paper
  Sec. 4.3);
* hello-phase initialization.

Subclasses specialize via hooks: :meth:`on_contention_lost` (EW-MAC's extra
communications), :meth:`on_overheard` (ROPA appending, CS-MAC stealing),
:meth:`on_slot_idle` (maintenance broadcasts), and the off-slot frame
handler :meth:`handle_protocol_frame`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, List, Optional, Set, Tuple

from ..des.events import PRIORITY_NORMAL, Event
from ..des.simulator import Simulator
from ..net.node import DataRequest, Node
from ..phy.channel import AcousticChannel
from ..phy.frame import (
    BROADCAST,
    CONTROL_PACKET_BITS,
    Frame,
    FrameType,
    control_frame,
    data_frame,
    safe_bits,
    safe_float,
)
from ..phy.modem import Arrival
from .slots import SlotTiming


def _event_live(event: Optional[Event]) -> bool:
    """True iff ``event`` exists and is still pending in the kernel."""
    return event is not None and event.pending


class MacState(Enum):
    """Core handshake states (subset of the paper's Fig. 3)."""

    IDLE = "idle"
    WAIT_CTS = "wait_cts"
    WAIT_SEND_DATA = "wait_send_data"
    WAIT_ACK = "wait_ack"
    WAIT_DATA = "wait_data"
    EXTRA = "extra"  # EW-MAC asking/asked extra communication


@dataclass
class MacStats:
    """Per-node MAC counters (inputs to the paper's metrics)."""

    # transmit side
    data_sent_bits: int = 0
    ctrl_sent_bits: int = 0
    # opportunistic traffic (EW extra / ROPA append / CS-MAC steal)
    opportunistic_data_bits: int = 0
    # receive side
    data_received: int = 0
    data_received_bits: int = 0
    opportunistic_received: int = 0
    opportunistic_received_bits: int = 0
    duplicate_data: int = 0
    # outcomes
    handshakes_started: int = 0
    handshakes_completed: int = 0
    contention_failures: int = 0
    retransmitted_bits: int = 0
    drops: int = 0
    # overhead accounting
    maintenance_tx_bits: int = 0
    piggyback_bits: int = 0
    computation_units: float = 0.0
    # residency
    wait_slots: int = 0

    @property
    def total_data_bits_received(self) -> int:
        return self.data_received_bits + self.opportunistic_received_bits


def neighbor_state_entries(mac: "SlottedMac") -> int:
    """Stored neighbour-table entries of ``mac``: one-hop plus any two-hop.

    The one count both the energy model's maintenance term and the
    overhead's memory term charge for.
    """
    entries = mac.node.neighbors.memory_entries()
    two_hop = getattr(mac, "two_hop", None)
    if two_hop is not None:
        entries += two_hop.memory_entries()
    return entries


class SlottedMac:
    """Base class: the slotted four-way handshake engine.

    Subclasses must set :attr:`name` and may override the protocol hooks.
    """

    name = "slotted-base"
    #: Whether this protocol maintains two-hop neighbour state (overhead).
    uses_two_hop_info = False
    #: Whether the protocol *requires* per-neighbour propagation delays.
    #: S-FAMA does not (it reserves tau_max everywhere), so the paper uses
    #: it as the zero-additional-storage overhead baseline (Sec. 5.3).
    requires_neighbor_info = True
    #: Extra neighbour-info bits accounted per control frame (overhead
    #: bookkeeping; on-air size stays 64 bits so the slot grid matches the
    #: paper's Table 2).
    piggyback_bits = 0
    #: Period of NEIGH maintenance broadcasts (None = never).
    maintenance_period_s: Optional[float] = None

    # Shared by every protocol.
    #: Contention/data attempts per packet before dropping (``Scenario``
    #: sets it per instance from ``ScenarioConfig.max_retries``).
    max_retries = 12
    #: Binary-exponential backoff window, in slots.
    cw_min = 1
    cw_max = 4
    #: Weight of accumulated wait slots in the RTS priority value ``rp``
    #: (paper: rp "related to the contention and wait times of the sending
    #: sensor").
    rp_wait_weight = 0.25
    #: Safety margin for off-slot (extra/steal/append) timing.
    guard_s = 2.0e-3
    #: Hello broadcasts are staggered over this window.
    hello_window_s = 5.0

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        channel: AcousticChannel,
        timing: SlotTiming,
    ) -> None:
        self.sim = sim
        self.node = node
        self.channel = channel
        self.timing = timing
        self.stats = MacStats()
        self.state = MacState.IDLE
        self.quiet_until = 0.0
        # contention
        self._cw = self.cw_min
        self._backoff_slots = 0
        self._current_request: Optional[DataRequest] = None
        self._target: Optional[int] = None
        self._rts_slot: Optional[int] = None
        self._data_was_sent = False
        # receiver side
        self._rts_candidates: List[Frame] = []
        self._grant_src: Optional[int] = None
        self._grant_data_bits: int = 0
        self._grant_tau: float = 0.0
        self._ack_due_slot: Optional[int] = None
        self._ack_dst: Optional[int] = None
        # sender side data timing
        self._data_due_slot: Optional[int] = None
        # timeouts
        self._cts_timeout: Optional[Event] = None
        self._ack_timeout: Optional[Event] = None
        self._data_timeout: Optional[Event] = None
        # duplicate suppression (sequence numbers): a retransmission whose
        # Ack was lost must not count twice toward Eq. (2) throughput
        self._seen_data: Set[Tuple[int, int]] = set()
        self._seen_order: Deque[Tuple[int, int]] = deque()
        # callbacks
        self.on_data_delivered: Optional[Callable[[Node, int, int], None]] = None
        self._rng = sim.streams.get(f"mac.{node.node_id}")
        # wiring
        node.mac = self
        node.modem.on_receive = self._on_modem_receive
        node.clock.before_fault = self._wake
        self._slot_event: Optional[Event] = None
        #: ``(index, time, seq)`` while the node sleeps: the queue key of the
        #: tick the always-ticking engine would run next (see :meth:`_wake`).
        self._sleep: Optional[Tuple[int, float, int]] = None
        # Random phase so the network's maintenance broadcasts don't
        # synchronize into periodic collision storms.
        period = self.maintenance_period_s or 0.0
        self._next_maintenance = (
            sim.now
            + self.hello_window_s
            + (float(self._rng.uniform(0.5, 1.5)) * period if period else 0.0)
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Broadcast Hello (staggered) and begin slot ticks.

        Slot boundaries are computed in the node's *local* clock (paper:
        nodes are synchronized by an external protocol).  With the default
        perfect clock this is the global grid; tests and ablations inject
        offsets to measure how slot misalignment degrades the protocols.
        """
        if self._started:
            raise RuntimeError("MAC already started")
        self._started = True
        hello_at = float(self._rng.uniform(0.0, self.hello_window_s))
        self.sim.schedule(hello_at, self._send_hello)
        first_slot = self.timing.next_slot_index(
            self.node.clock.now() + self.hello_window_s + self.timing.tau_max_s
        )
        self._slot_event = self.sim.schedule_at(
            max(self.node.clock.to_true(self.timing.slot_start(first_slot)), self.sim.now),
            self._slot_tick,
            first_slot,
        )

    def stop(self) -> None:
        """Cancel all pending activity (end of experiment or node crash)."""
        for event in (self._slot_event, self._cts_timeout, self._ack_timeout, self._data_timeout):
            self.sim.cancel(event)
        self._slot_event = None
        self._sleep = None
        self._cts_timeout = None
        self._ack_timeout = None
        self._data_timeout = None

    def restart(self) -> None:
        """Reboot the MAC after a node recovery: wipe state, start fresh.

        A recovered node does not remember an in-flight handshake — it
        rejoins like a newly deployed sensor: Hello, then slot ticks.
        """
        self.stop()
        self._reset_protocol_state()
        self._started = False
        self.start()

    def _reset_protocol_state(self) -> None:
        """Drop every pending handshake context (crash/reboot semantics).

        Subclasses extend this to clear their protocol-specific contexts
        (EW-MAC asking/asked, ROPA append, CS-MAC steal); they must call
        ``super()._reset_protocol_state()``.
        """
        for event in (self._cts_timeout, self._ack_timeout, self._data_timeout):
            self.sim.cancel(event)
        self._cts_timeout = None
        self._ack_timeout = None
        self._data_timeout = None
        self.state = MacState.IDLE
        self._current_request = None
        self._target = None
        self._rts_slot = None
        self._data_due_slot = None
        self._data_was_sent = False
        self._rts_candidates = []
        self._grant_src = None
        self._grant_data_bits = 0
        self._grant_tau = 0.0
        self._ack_due_slot = None
        self._ack_dst = None
        self._backoff_slots = 0
        self._cw = self.cw_min

    # ------------------------------------------------------------------
    # Post-run invariant audit (fault injection)
    # ------------------------------------------------------------------
    def audit_pending_state(self) -> List[str]:
        """Check for wedged handshake state; returns violation strings.

        A non-IDLE state is legitimate only while a live timeout (or a
        scheduled due-slot action) guarantees forward progress.  A state
        that nothing will ever advance — typically left behind when a peer
        died mid-exchange — is a wedge, and each one is reported.  Stopped
        or failed MACs are exempt: their state is frozen by design.
        """
        if not self._started or not self.node.modem.enabled:
            return []
        violations: List[str] = []
        prefix = f"{self.name} node {self.node.node_id}"
        if self._sleep is None:
            if not _event_live(self._slot_event):
                violations.append(f"{prefix}: slot engine not running")
                return violations
        else:
            # Asleep is legitimate while no boundary has work for the node
            # and, where the protocol has maintenance, its wake is armed.
            if self._handshake_work():
                violations.append(f"{prefix}: asleep with slot work due")
            if self.maintenance_period_s is not None and not _event_live(self._slot_event):
                violations.append(f"{prefix}: asleep without a maintenance wake")
        if self.state is MacState.WAIT_CTS and not _event_live(self._cts_timeout):
            violations.append(f"{prefix}: WAIT_CTS without a live CTS timeout")
        if self.state is MacState.WAIT_SEND_DATA and self._data_due_slot is None:
            violations.append(f"{prefix}: WAIT_SEND_DATA without a data due slot")
        if self.state is MacState.WAIT_ACK and not _event_live(self._ack_timeout):
            violations.append(f"{prefix}: WAIT_ACK without a live Ack timeout")
        if (
            self.state is MacState.WAIT_DATA
            and not _event_live(self._data_timeout)
            and self._ack_due_slot is None
        ):
            violations.append(
                f"{prefix}: WAIT_DATA without a live data timeout or pending Ack"
            )
        self._audit_protocol_state(violations)
        return violations

    def _audit_protocol_state(self, violations: List[str]) -> None:
        """Subclass hook: append protocol-specific wedge findings."""

    def notify_queue(self) -> None:
        """Node enqueued data: a sleeping node wakes for its next boundary."""
        self._wake()

    # ------------------------------------------------------------------
    # Slot engine
    # ------------------------------------------------------------------
    def _slot_tick(self, index: int) -> None:
        self._sleep = None  # the tick may be a sleeping node's maintenance wake
        # The next tick keeps the queue position it would have had if it
        # were pushed first, as the sleep decision can only follow the slot
        # actions.
        seq = self.sim.take_seq()
        self._slot_actions(index)
        index += 1
        time = self._tick_time(index, self.sim.now)
        if self._can_sleep():
            due = (
                None
                if self.maintenance_period_s is None
                else self._first_tick_after(index, time, seq, (self._next_maintenance,))
            )
            if due != index:
                # Sleep; a protocol with maintenance arms the tick due for it.
                self._sleep = (index, time, seq)
                if due is None:
                    self._slot_event = None
                    return
                index, time = due, self._tick_time(due, time)
        self._slot_event = self.sim.schedule_at(time, self._slot_tick, index, seq=seq)

    def _can_sleep(self) -> bool:
        """The sleep predicate: no boundary has work for this node.

        An IDLE node without handshake work only runs maintenance at a
        boundary, and a sleep arms the tick due for it.  Everything else
        that gives the node slot work wakes it first: an enqueue
        (:meth:`notify_queue`), an addressed RTS and a clock fault (the
        clock's ``before_fault``).
        """
        return self.state is MacState.IDLE and not self._handshake_work()

    def _handshake_work(self) -> bool:
        """Queued data, an RTS to grant, or an Ack or Data due."""
        return bool(
            self.node.queue
            or self._rts_candidates
            or self._ack_due_slot is not None
            or self._data_due_slot is not None
        )

    def _tick_time(self, index: int, floor: float) -> float:
        """When the always-ticking engine runs tick ``index`` of a sleep.

        Each tick re-arms at ``max(to_true(slot_start), now)``, so after
        the first one, at ``floor``, tick ``index`` fires at
        ``max(to_true(slot_start(index)), floor)``.
        """
        return max(self.node.clock.to_true(self.timing.slot_start(index)), floor)

    def _first_tick_after(
        self, index: int, floor: float, seq: int, bound: Tuple[float, ...]
    ) -> int:
        """First tick ``j >= index`` of a sleep whose queue key sorts after ``bound``.

        Every tick of a sleep is keyed ``(time, PRIORITY_NORMAL, seq)`` with
        the ``seq`` reserved when the node fell asleep; ``bound`` is a
        queue key, or ``(t,)`` for "fires at or after ``t``".
        """

        def key(j: int) -> Tuple[float, int, int]:
            return (self._tick_time(j, floor), PRIORITY_NORMAL, seq)

        if key(index) > bound:
            return index
        local = self.node.clock.to_local(bound[0])
        j = max(index + 1, self.timing.slot_index(local) if local > 0 else 0)
        while j > index + 1 and key(j - 1) > bound:
            j -= 1
        while key(j) <= bound:
            j += 1
        return j

    def _wake(self) -> None:
        """End a sleep, if any: arm the tick the always-ticking engine runs next.

        That is the first tick of the sleep whose queue key still sorts
        after :meth:`Simulator.frontier`.  So work that appears exactly at
        a boundary instant is seen by that boundary's tick iff it was
        processed before the tick.  The keys share the ``seq`` reserved
        when the node fell asleep: exact for the first tick, and for later
        ones exact unless a same-priority event at that very instant was
        pushed after the node fell asleep but before the boundary ahead of
        it.
        """
        if self._sleep is None:
            return
        index, floor, seq = self._sleep
        self._sleep = None
        index = self._first_tick_after(index, floor, seq, self.sim.frontier())
        pending = self._slot_event
        if pending is not None and pending.pending:
            if pending.args[0] == index:
                return  # the maintenance wake is that very tick
            self.sim.cancel(pending)
        self._slot_event = self.sim.schedule_at(
            self._tick_time(index, floor), self._slot_tick, index, seq=seq
        )

    def _slot_actions(self, index: int) -> None:
        now = self.sim.now
        # An opportunistic (mid-slot) transmission may still be on the air
        # at the boundary; slot actions must then be skipped, not crash.
        busy_tx = self.node.modem.transmitting
        # 1. Ack due this slot (receiver side, Eq. 5).  _send_ack itself
        # skips the transmission (sender will retry) if the modem is busy.
        if self._ack_due_slot == index:
            self._send_ack()
            return
        # 2. Grant decision for RTSs collected in the previous slot.
        if self._rts_candidates:
            candidates, self._rts_candidates = self._rts_candidates, []
            if self.state is MacState.IDLE and now >= self.quiet_until and not busy_tx:
                self._grant(candidates, index)
                return
        # 3. Data send due (sender side, slot rts+2).
        if self._data_due_slot == index and self.state is MacState.WAIT_SEND_DATA:
            if busy_tx:
                # Cannot launch the negotiated Data: abandon the exchange;
                # the receiver's data timeout will release it.
                self._reset_to_idle(backoff=True)
                return
            self._send_data(index)
            return
        # 4. Contention.
        if self.state is MacState.IDLE and self.node.has_pending_data:
            self.stats.wait_slots += 1
            if now < self.quiet_until or busy_tx:
                return
            if self._backoff_slots > 0:
                self._backoff_slots -= 1
                return
            self._send_rts(index)
            return
        # 5. Idle slot: let subclasses do maintenance.
        if self.state is MacState.IDLE and now >= self.quiet_until:
            self.on_slot_idle(index)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def _send_rts(self, index: int) -> None:
        request = self.node.peek_request()
        assert request is not None
        self._current_request = request
        self._target = request.dst
        self._rts_slot = index
        request.attempts += 1
        rp = self._priority_value()
        pair_delay = self.node.neighbors.delay_to(request.dst)
        frame = control_frame(
            FrameType.RTS,
            self.node.node_id,
            request.dst,
            self.sim.now,
            pair_delay_s=pair_delay,
            rp=rp,
            data_bits=request.size_bits,
        )
        self._transmit_control(frame)
        self.stats.handshakes_started += 1
        if request.attempts > 1:
            self.stats.retransmitted_bits += CONTROL_PACKET_BITS
        self.state = MacState.WAIT_CTS
        # CTS must be granted in slot index+1; give up at the start of +2.
        self._cts_timeout = self.sim.schedule_at(
            self.timing.slot_start(index + 2), self._on_cts_timeout
        )

    def _priority_value(self) -> float:
        """The paper's rp: random, boosted by accumulated wait time."""
        base = float(self._rng.random())
        waited = self._current_request.attempts if self._current_request else 0
        return base * (1.0 + self.rp_wait_weight * (waited + 0.1 * self.stats.wait_slots))

    def _on_cts_timeout(self) -> None:
        self._cts_timeout = None
        if self.state is not MacState.WAIT_CTS:
            return
        self.stats.contention_failures += 1
        self.contention_failed()

    def contention_failed(self) -> None:
        """Default failure policy: exponential backoff and retry later."""
        request = self._current_request
        if request is not None and request.attempts > self.max_retries:
            self._drop_current()
        self._reset_to_idle(backoff=True)

    def _send_data(self, index: int) -> None:
        request = self._current_request
        assert request is not None and self._target is not None
        frame = data_frame(
            self.node.node_id,
            self._target,
            self.sim.now,
            size_bits=request.size_bits,
            req_uid=request.uid,
        )
        self.node.modem.transmit(frame)
        self.stats.data_sent_bits += request.size_bits
        if self._data_was_sent:
            self.stats.retransmitted_bits += request.size_bits
        self._data_was_sent = True
        self.state = MacState.WAIT_ACK
        self._data_due_slot = None
        tau = self.node.neighbors.delay_to(self._target)
        tau = tau if tau is not None else self.timing.tau_max_s
        data_duration = request.size_bits / self.channel.bitrate_bps
        ack_slot = self.timing.ack_slot(index, data_duration, tau)
        self._ack_timeout = self.sim.schedule_at(
            self.timing.ack_end_time(ack_slot) + self.guard_s,
            self._on_ack_timeout,
        )

    def _on_ack_timeout(self) -> None:
        self._ack_timeout = None
        if self.state is not MacState.WAIT_ACK:
            return
        request = self._current_request
        if request is not None and request.attempts > self.max_retries:
            self._drop_current()
        self._reset_to_idle(backoff=True)

    def _complete_send(self) -> None:
        """Ack received: the head-of-line packet is done."""
        request = self._current_request
        if request is not None:
            self.node.remove_request(request)
            self.node.note_sent(request)
        self.stats.handshakes_completed += 1
        self._cw = self.cw_min
        self._reset_to_idle(backoff=False)

    def _drop_current(self) -> None:
        request = self._current_request
        if request is not None:
            self.node.remove_request(request)
            self.stats.drops += 1
        self._current_request = None
        self._data_was_sent = False

    def _reset_to_idle(self, backoff: bool) -> None:
        self.sim.cancel(self._cts_timeout)
        self.sim.cancel(self._ack_timeout)
        self._cts_timeout = None
        self._ack_timeout = None
        self.state = MacState.IDLE
        self._target = None
        self._rts_slot = None
        self._data_due_slot = None
        if self._current_request is None:
            self._data_was_sent = False
        if backoff:
            self._start_backoff()

    def _start_backoff(self) -> None:
        self._backoff_slots = int(self._rng.integers(1, self._cw + 1))
        self._cw = min(self._cw * 2, self.cw_max)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _grant(self, candidates: List[Frame], index: int) -> None:
        """Choose the highest-rp RTS from the last slot and send CTS."""
        winner = max(
            candidates, key=lambda f: safe_float(f.info.get("rp")) or 0.0
        )
        tau = self.node.neighbors.delay_to(winner.src)
        if tau is None:
            tau = self.timing.tau_max_s
        self._grant_src = winner.src
        self._grant_data_bits = safe_bits(winner.info.get("data_bits"), default=0, minimum=0)
        self._grant_tau = tau
        frame = control_frame(
            FrameType.CTS,
            self.node.node_id,
            winner.src,
            self.sim.now,
            pair_delay_s=tau,
            data_bits=self._grant_data_bits,
            rts_slot=index - 1,
        )
        self._transmit_control(frame)
        self.state = MacState.WAIT_DATA
        # Data should be fully received by the Eq. 5 ack slot; allow one
        # extra slot of slack before declaring the exchange dead.
        data_duration = max(self._grant_data_bits, 1) / self.channel.bitrate_bps
        ack_slot = self.timing.ack_slot(index + 1, data_duration, tau)
        self._data_timeout = self.sim.schedule_at(
            self.timing.slot_start(ack_slot) + self.guard_s,
            self._on_data_timeout,
        )

    def _on_data_timeout(self) -> None:
        self._data_timeout = None
        if self.state is not MacState.WAIT_DATA:
            return
        self._grant_src = None
        self.state = MacState.IDLE

    def _receive_data(self, frame: Frame, arrival: Arrival) -> None:
        """Expected negotiated Data arrived intact: schedule the Eq. 5 Ack."""
        self.sim.cancel(self._data_timeout)
        self._data_timeout = None
        if self.register_data_reception(frame):
            self.stats.data_received += 1
            self.stats.data_received_bits += frame.size_bits
            self.node.note_delivered(frame.size_bits)
            if self.on_data_delivered is not None:
                self.on_data_delivered(self.node, frame.src, frame.size_bits)
        data_slot = self.timing.slot_index(frame.timestamp)
        duration = frame.size_bits / self.channel.bitrate_bps
        self._ack_due_slot = self.timing.ack_slot(data_slot, duration, arrival.delay_s)
        self._ack_dst = frame.src
        self.state = MacState.WAIT_DATA  # remains committed until Ack goes out

    def _send_ack(self) -> None:
        dst = self._ack_dst
        self._ack_due_slot = None
        self._ack_dst = None
        self._grant_src = None
        self.state = MacState.IDLE
        if dst is None:
            return
        if self.node.modem.transmitting:
            return  # cannot ack; sender will retransmit
        frame = control_frame(FrameType.ACK, self.node.node_id, dst, self.sim.now)
        self._transmit_control(frame)
        self.after_ack_sent(dst)

    def register_data_reception(self, frame: Frame) -> bool:
        """Sequence-number dedup: True iff this data was not seen before.

        Duplicates (retransmissions after a lost Ack) are still
        acknowledged by callers, but must not count again toward Eq. (2)
        throughput nor be forwarded a second time.
        """
        uid = frame.info.get("req_uid")
        if uid is None:
            return True
        try:
            key = (frame.src, int(uid))
        except (TypeError, ValueError, OverflowError):
            return True  # malformed uid from a hostile frame: cannot dedup
        if key in self._seen_data:
            self.stats.duplicate_data += 1
            return False
        self._seen_data.add(key)
        self._seen_order.append(key)
        if len(self._seen_order) > 8192:
            self._seen_data.discard(self._seen_order.popleft())
        return True

    # ------------------------------------------------------------------
    # Frame reception and overhearing
    # ------------------------------------------------------------------
    def _on_modem_receive(self, frame: Frame, arrival: Arrival) -> None:
        if not self.node.modem.enabled:
            return  # decoded just as the node died: a dead MAC reacts to nothing
        # Passive one-hop delay maintenance from every frame (paper 4.3).
        measured = arrival.start - frame.timestamp
        if frame.src != self.node.node_id and measured >= 0:
            self.node.neighbors.observe(frame.src, measured)
        if frame.ftype is FrameType.HELLO:
            return
        if frame.ftype is FrameType.NEIGH:
            self.handle_neigh(frame, arrival)
            return
        if frame.dst == self.node.node_id:
            self._handle_addressed(frame, arrival)
        else:
            self._handle_overheard(frame, arrival)

    def _handle_addressed(self, frame: Frame, arrival: Arrival) -> None:
        ftype = frame.ftype
        if ftype is FrameType.RTS:
            if (
                self.state is MacState.IDLE
                and self.sim.now >= self.quiet_until
                and self._ack_due_slot is None
            ):
                self._rts_candidates.append(frame)
                self._wake()
            return
        if ftype is FrameType.CTS:
            if self.state is MacState.WAIT_CTS and frame.src == self._target:
                self.sim.cancel(self._cts_timeout)
                self._cts_timeout = None
                assert self._rts_slot is not None
                self._data_due_slot = self._rts_slot + 2
                self.state = MacState.WAIT_SEND_DATA
            return
        if ftype is FrameType.DATA:
            if self.state is MacState.WAIT_DATA and frame.src == self._grant_src:
                self._receive_data(frame, arrival)
            else:
                self.handle_unexpected_data(frame, arrival)
            return
        if ftype is FrameType.ACK:
            if self.state is MacState.WAIT_ACK and frame.src == self._target:
                self._complete_send()
            return
        # Protocol-specific frames (EXR/EXC/EXDATA/EXACK/RTA).
        self.handle_protocol_frame(frame, arrival)

    def _handle_overheard(self, frame: Frame, arrival: Arrival) -> None:
        ftype = frame.ftype
        # Contention-lost detection (paper Sec. 4.1): while waiting for a
        # CTS from j, any negotiation frame *from* j for someone else means
        # we lost this contention round.
        if (
            self.state is MacState.WAIT_CTS
            and self._target is not None
            and frame.src == self._target
            and ftype in (FrameType.RTS, FrameType.CTS)
        ):
            self.sim.cancel(self._cts_timeout)
            self._cts_timeout = None
            self.stats.contention_failures += 1
            self.on_contention_lost(self._target, frame, arrival)
            self._apply_quiet(frame, arrival)
            return
        self.on_overheard(frame, arrival)
        self._apply_quiet(frame, arrival)

    def _apply_quiet(self, frame: Frame, arrival: Arrival) -> None:
        """NAV bookkeeping from an overheard negotiation frame."""
        ftype = frame.ftype
        slot = self.timing.slot_index(frame.timestamp)
        if ftype is FrameType.RTS:
            # Cover the CTS reply slot; extend if the CTS is then heard.
            self._set_quiet(self.timing.slot_start(slot + 2))
        elif ftype is FrameType.CTS:
            tau = safe_float(frame.pair_delay_s)
            tau = tau if tau is not None and tau >= 0 else self.timing.tau_max_s
            data_bits = safe_bits(frame.info.get("data_bits"), default=0, minimum=0)
            duration = max(data_bits, CONTROL_PACKET_BITS) / self.channel.bitrate_bps
            ack_slot = self.timing.ack_slot(slot + 1, duration, tau)
            self._set_quiet(self.timing.ack_end_time(ack_slot))
        elif ftype is FrameType.DATA:
            duration = frame.size_bits / self.channel.bitrate_bps
            ack_slot = self.timing.ack_slot(slot, duration, self.timing.tau_max_s)
            self._set_quiet(self.timing.ack_end_time(ack_slot))
        elif ftype is FrameType.EXC:
            # Paper Sec. 4.2: "when a sensor receives any extra control
            # packet from its neighbor ... the sensor will be quiet to
            # avoid interfering with the extra communication".  The EXC is
            # the *grant* and announces the scheduled EXData start and
            # size, so overhearers stay quiet through the whole extra
            # transfer (EXData + EXAck).
            exdata_start = safe_float(frame.info.get("exdata_start"))
            if exdata_start is not None and exdata_start >= 0.0:
                bits = safe_bits(frame.info.get("data_bits"))
                duration = bits / self.channel.bitrate_bps
                end = (
                    float(exdata_start)
                    + self.timing.tau_max_s  # EXData propagation
                    + duration
                    + self.timing.omega_s    # EXAck transmission
                    + self.timing.tau_max_s  # EXAck propagation
                )
                self._set_quiet(end)
            else:
                self._set_quiet(self.sim.now + self.timing.slot_s)
        elif ftype.is_extra:
            # An EXR is only a request (it may be denied); a brief hold is
            # enough to protect the EXC round trip.
            self._set_quiet(self.sim.now + self.timing.slot_s)

    def _set_quiet(self, until: float) -> None:
        if until > self.quiet_until:
            self.quiet_until = until

    # ------------------------------------------------------------------
    # Hello / maintenance
    # ------------------------------------------------------------------
    def _send_hello(self) -> None:
        if not self.node.modem.enabled:
            return
        if self.node.modem.transmitting:
            self.sim.schedule(self.timing.omega_s, self._send_hello)
            return
        frame = control_frame(FrameType.HELLO, self.node.node_id, BROADCAST, self.sim.now)
        self._transmit_control(frame)

    def maintenance_frame_bits(self) -> int:
        """On-air size of a NEIGH broadcast for this protocol."""
        entries = self.node.neighbors.memory_entries()
        per_entry = 32  # id + quantized delay
        return CONTROL_PACKET_BITS + entries * per_entry

    def _maybe_send_maintenance(self, index: int) -> None:
        period = self.maintenance_period_s
        if period is None or self.sim.now < self._next_maintenance:
            return
        # Jittered period keeps broadcasts de-phased over long runs, and the
        # random in-slot offset below stops quiet periods from re-syncing
        # overdue broadcasters into a collision burst at the slot boundary.
        self._next_maintenance = self.sim.now + period * float(self._rng.uniform(0.75, 1.25))
        offset = float(self._rng.uniform(0.0, 0.5 * self.timing.tau_max_s))
        self.sim.schedule(offset, self._send_maintenance)

    def _send_maintenance(self) -> None:
        if not self.node.modem.enabled:
            return
        if self.node.modem.transmitting or self.state is not MacState.IDLE:
            return
        bits = self.maintenance_frame_bits()
        links = [
            (nid, self.node.neighbors.delay_to(nid) or 0.0)
            for nid in self.node.neighbors.neighbors()
        ]
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
    # Transmit helper
    # ------------------------------------------------------------------
    def _transmit_control(self, frame: Frame) -> None:
        self.node.modem.transmit(frame)
        self.stats.ctrl_sent_bits += frame.size_bits
        if self.piggyback_bits:
            self.stats.piggyback_bits += self.piggyback_bits

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def on_contention_lost(self, target: int, frame: Frame, arrival: Arrival) -> None:
        """Called when a WAIT_CTS sender learns its target chose another.

        Default (S-FAMA): give up and back off.  EW-MAC overrides to start
        the extra-communication request phase.
        """
        self.contention_failed()

    def on_overheard(self, frame: Frame, arrival: Arrival) -> None:
        """Called for every overheard frame before quiet bookkeeping."""

    def on_slot_idle(self, index: int) -> None:
        """Called at a slot boundary when idle; default runs maintenance."""
        self._maybe_send_maintenance(index)

    def after_ack_sent(self, data_src: int) -> None:
        """Called right after the negotiated Ack went out (EW-MAC hook)."""

    def handle_protocol_frame(self, frame: Frame, arrival: Arrival) -> None:
        """Addressed frames beyond the base set (EXR/EXC/.../RTA)."""

    def handle_unexpected_data(self, frame: Frame, arrival: Arrival) -> None:
        """Addressed DATA outside a negotiated exchange (CS-MAC steals)."""

    def handle_neigh(self, frame: Frame, arrival: Arrival) -> None:
        """NEIGH broadcast received (two-hop protocols override)."""
