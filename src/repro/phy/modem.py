"""Half-duplex acoustic modem.

Implements the paper's antenna constraints (Sec. 3.2):

* "a sensor cannot transmit and receive simultaneously" — any arrival that
  overlaps one of this modem's transmissions is lost (HALF_DUPLEX);
* "the antenna remains in the receive state when it is not transmitting" —
  the modem always listens, and the attached MAC receives *every*
  successfully decoded frame, addressed to it or not (overhearing is how
  all four protocols learn about neighbours' negotiations);
* "the collision occurs when two or more packets arrive at a sensor at the
  same time" — overlapping arrivals interfere; an arrival survives iff its
  SINR stays at or above the channel's decode threshold, so overlap of
  comparable-power arrivals destroys both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..des.events import PRIORITY_NORMAL
from ..des.simulator import Simulator
from .frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .channel import AcousticChannel

class RxOutcome(Enum):
    """Why an arrival was or was not decoded."""

    OK = "ok"
    HALF_DUPLEX = "half_duplex"
    COLLISION = "collision"
    NOISE = "noise"
    OFFLINE = "offline"  # modem dead or RX chain in an injected outage


@dataclass
class Arrival:
    """One signal arriving at a modem.

    A broadcast fans one Arrival out per in-range receiver, so these are
    the most-allocated objects in a simulation after events; ``__slots__``
    (declared manually for Python 3.9 compatibility) keeps them small and
    their field reads cheap in the overlap scans.

    Attributes:
        frame: The frame carried by the signal.
        src: Transmitting node id.
        start: Arrival start time (tx start + propagation delay).
        end: Arrival end time (start + on-air duration).
        level_db: Received signal level at this modem.
        delay_s: One-way propagation delay the signal experienced.
    """

    __slots__ = ("frame", "src", "start", "end", "level_db", "delay_s")

    frame: Frame
    src: int
    start: float
    end: float
    level_db: float
    delay_s: float


@dataclass
class ModemStats:
    """Per-modem counters consumed by the metrics layer."""

    tx_frames: int = 0
    tx_bits: int = 0
    tx_time_s: float = 0.0
    rx_ok: int = 0
    rx_ok_bits: int = 0
    rx_half_duplex: int = 0
    rx_collision: int = 0
    rx_noise: int = 0
    rx_busy_time_s: float = 0.0
    # fault-injection counters
    tx_suppressed: int = 0
    rx_outage: int = 0


@dataclass
class _TxInterval:
    __slots__ = ("start", "end")

    start: float
    end: float


class AcousticModem:
    """The half-duplex transceiver owned by one sensor node.

    The MAC layer attaches via :attr:`on_receive` (called with every decoded
    frame and its :class:`Arrival`) and optionally :attr:`on_rx_failure`
    (called with failed arrivals, used by tests and collision metrics).

    The channel hands each arrival to :meth:`begin_arrival` or, when it
    cannot decode even with no interferer, to :meth:`begin_interferer`.
    Such an arrival gets no finish event: it is *settled* lazily by the
    failure rules a decode applies (:meth:`settle`), at whichever comes
    first after its end: this modem's next receive, decode or transmit,
    its next enable/RX flip, or the return of :meth:`Simulator.run`.  So
    :attr:`on_rx_failure` fires for an undecodable arrival late, but
    before any counter is read and in the order the finish events would
    have run; a traced ``phy.rx_fail`` record still carries
    ``time=arrival.end``.
    """

    def __init__(self, sim: Simulator, node_id: int, channel: "AcousticChannel") -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        #: Failure injection: a disabled modem neither sends nor receives.
        self.enabled = True
        #: Partial outages (node alive, one chain down): a disabled TX
        #: chain silently swallows transmissions; a disabled RX chain
        #: drops arrivals.  The MAC keeps running and must recover through
        #: its own timeouts — unlike ``enabled``, these never raise.
        self.tx_enabled = True
        self.rx_enabled = True
        self.stats = ModemStats()
        # The tracer is fixed at Simulator construction, so its enabled flag
        # can be cached: every emit call site below evaluates its arguments
        # (``frame.describe()`` string building in particular) eagerly, and
        # the receive path emits once per arrival — guarding on a cached
        # bool keeps disabled-trace runs from paying for any of it.
        self._trace = sim.trace
        self._trace_on = sim.trace.enabled
        # The link budget and decode threshold are fixed in the channel
        # constructor, before any modem exists, so the decode path — run
        # once per arrival — reads them through attributes cached here
        # instead of attribute chains per decode.
        self._link_budget = channel.link_budget
        self._decode_threshold_db = channel.decode_threshold_db
        self._push_at = sim.push_at
        self._take_seq = sim.take_seq
        self.on_receive: Optional[Callable[[Frame, Arrival], None]] = None
        self.on_rx_failure: Optional[Callable[[Arrival, RxOutcome], None]] = None
        self._tx_intervals: List[_TxInterval] = []
        self._arrivals: List[Arrival] = []
        #: Registered arrivals awaiting settlement, as a heap of the finish
        #: event each would have had — ``(end, PRIORITY_NORMAL, seq)`` —
        #: followed by the arrival (see :meth:`settle`).
        self._unsettled: List[Tuple[float, int, int, Arrival]] = []
        self._rx_busy_until = 0.0
        self._last_tx_end = 0.0
        # Longest on-air duration seen (tx or rx).  Anything that ended more
        # than this long ago cannot overlap an arrival still in flight — an
        # in-flight arrival started at most one duration before now — so it
        # is the exact retention horizon for the overlap scans.  Keeping the
        # interval lists this tight turns _finish_arrival's interferer scan
        # from O(arrivals within 30 s) into O(arrivals within one frame).
        self._max_duration_s = 0.0

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        """True while a transmission is on the wire.

        Transmissions are serialized (:meth:`transmit` refuses to overlap)
        and simulation time never runs backwards, so "inside any interval"
        reduces to "before the end of the latest one": earlier intervals
        ended at or before the latest one started, and a query can never
        precede the latest interval's start.
        """
        return self.sim.now < self._last_tx_end

    def transmit(self, frame: Frame) -> float:
        """Send ``frame`` now; returns its on-air duration.

        Raises RuntimeError if a transmission is already in progress — MAC
        protocols are responsible for serializing their own transmissions,
        and violating that is always a protocol bug worth failing loudly on.
        """
        if not self.enabled:
            raise RuntimeError(f"node {self.node_id}: transmit on a failed modem")
        if self.transmitting:
            raise RuntimeError(
                f"node {self.node_id}: transmit({frame.describe()}) while "
                "already transmitting"
            )
        if not self.tx_enabled:
            # TX-chain outage: the frame is lost in the dead amplifier.
            # Unlike a dead modem this is not a protocol bug — the MAC's
            # own retry/timeout machinery is expected to absorb it.
            self.stats.tx_suppressed += 1
            if self._trace_on:
                self._trace.emit(
                    self.sim.now, "phy.tx_suppressed", self.node_id, frame=frame.describe()
                )
            return 0.0
        duration = frame.duration_s(self.channel.bitrate_bps)
        now = self.sim.now
        unsettled = self._unsettled
        if unsettled and unsettled[0][0] < now:
            self.settle((now,))  # before _prune drops an interval they need
        frame.timestamp = now
        self._tx_intervals.append(_TxInterval(self.sim.now, self.sim.now + duration))
        self._last_tx_end = self.sim.now + duration
        if duration > self._max_duration_s:
            self._max_duration_s = duration
        self._prune(self._tx_intervals)
        self.stats.tx_frames += 1
        self.stats.tx_bits += frame.size_bits
        self.stats.tx_time_s += duration
        if self._trace_on:
            self._trace.emit(
                self.sim.now, "phy.tx", self.node_id, frame=frame.describe(), dur=round(duration, 6)
            )
        self.channel.broadcast(self, frame, duration)
        return duration

    # ------------------------------------------------------------------
    # Receive path (driven by the channel)
    # ------------------------------------------------------------------
    def begin_arrival(self, arrival: Arrival) -> None:
        """Channel callback: a signal's leading edge reached this modem."""
        if not self.enabled:
            return
        if not self.rx_enabled:
            self.stats.rx_outage += 1
            return
        self._arrivals.append(arrival)
        end = arrival.end
        duration = end - arrival.start
        if duration > self._max_duration_s:
            self._max_duration_s = duration
        # Accumulate receiver-busy time as interval union (overlaps counted once).
        busy_from = self._rx_busy_until
        if busy_from < arrival.start:
            busy_from = arrival.start
        if end > busy_from:
            self.stats.rx_busy_time_s += end - busy_from
            self._rx_busy_until = end
        # Fast-path push: the end time is trivially >= now, so the
        # schedule_at validation wrapper adds nothing but a call frame.
        self._push_at(end, self._finish_arrival, (arrival,))

    def begin_interferer(self, arrival: Arrival) -> None:
        """Channel callback: the leading edge of a signal that cannot decode.

        The channel routes an arrival here when its interference-free SINR
        under the quietest reachable noise floor is below the decode
        threshold, so it can only interfere.  It is registered exactly as in
        :meth:`begin_arrival` (the two are kept inline, in step, because
        they run once per delivery), but instead of a finish event it takes
        that event's sequence number and joins the unsettled heap.  The
        arrival list is head-pruned here too: a modem that only ever hears
        such signals would otherwise never prune it.
        """
        if not self.enabled:
            return
        if not self.rx_enabled:
            self.stats.rx_outage += 1
            return
        arrivals = self._arrivals
        arrivals.append(arrival)
        end = arrival.end
        duration = end - arrival.start
        if duration > self._max_duration_s:
            self._max_duration_s = duration
        busy_from = self._rx_busy_until
        if busy_from < arrival.start:
            busy_from = arrival.start
        if end > busy_from:
            self.stats.rx_busy_time_s += end - busy_from
            self._rx_busy_until = end
        now = self.sim.now
        unsettled = self._unsettled
        if unsettled and unsettled[0][0] < now:
            self.settle((now,))
        # ``arrival`` itself ends after now, so the loop stops at it.
        horizon = now - self._max_duration_s
        while arrivals[0].end < horizon:
            del arrivals[0]
        heappush(unsettled, (end, PRIORITY_NORMAL, self._take_seq(), arrival))

    def _finish_arrival(self, arrival: Arrival) -> None:
        """Event callback: the signal's trailing edge passed; decode it."""
        now = self.sim.now
        unsettled = self._unsettled
        if unsettled and unsettled[0][0] < now:
            self.settle((now,))
        arrivals = self._arrivals
        # Drop leading arrivals that ended before the retention horizon.
        # None of them can overlap ``arrival``, which started at most one
        # duration ago, so pruning before the scan leaves its interferers
        # unchanged; a stale arrival behind a live one waits for the next
        # decode.  ``arrival`` itself ends now, so the loop stops at it.
        horizon = now - self._max_duration_s
        while arrivals[0].end < horizon:
            del arrivals[0]
        stats = self.stats
        if not self.enabled or not self.rx_enabled:
            # The node died (or its RX chain dropped) while this signal was
            # in flight: nothing is decoded, so clean runs — where both
            # flags are always True — are untouched.
            stats.rx_outage += 1
            if self._trace_on:
                self._trace_failure(arrival, RxOutcome.OFFLINE)
            return
        a_start = arrival.start
        a_end = arrival.end
        # Half-duplex: any own transmission overlapping the arrival kills it.
        for iv in self._tx_intervals:
            if iv.start < a_end and iv.end > a_start:
                stats.rx_half_duplex += 1
                outcome = RxOutcome.HALF_DUPLEX
                break
        else:
            # Interferers in begin order: the SINR sum runs in list order.
            interferer_levels = [
                other.level_db
                for other in arrivals
                if other is not arrival and other.start < a_end and other.end > a_start
            ]
            sinr_db = self._link_budget.sinr_db_from_levels(
                arrival.level_db,
                interferer_levels,
                extra_noise_db=self.channel.extra_noise_db,
            )
            frame = arrival.frame
            if sinr_db >= self._decode_threshold_db:
                stats.rx_ok += 1
                stats.rx_ok_bits += frame.size_bits
                if self._trace_on:
                    self._trace.emit(now, "phy.rx", self.node_id, frame=frame.describe())
                if self.on_receive is not None:
                    self.on_receive(frame, arrival)
                return
            if interferer_levels:
                stats.rx_collision += 1
                outcome = RxOutcome.COLLISION
            else:
                stats.rx_noise += 1
                outcome = RxOutcome.NOISE
        if self._trace_on:
            self._trace_failure(arrival, outcome)
        if self.on_rx_failure is not None:
            self.on_rx_failure(arrival, outcome)

    def settle(self, frontier: Optional[Tuple[float, ...]] = None) -> Optional[float]:
        """Settle the unsettled arrivals whose finish would have run by now.

        An arrival is settled when its would-be finish event ``(end,
        PRIORITY_NORMAL, seq)`` sorts below ``frontier`` (by default the
        simulator's :meth:`~repro.des.simulator.Simulator.frontier`); a
        one-element ``(t,)`` frontier settles those that ended before
        ``t``.  They settle in finish-event order, each failed exactly as
        :meth:`_finish_arrival` would have failed it: OFFLINE, then
        HALF_DUPLEX, then COLLISION if anything overlapped it, else NOISE.

        That is exact only while the state those rules read is what it was
        at the arrival's end.  Later arrivals and transmissions start at or
        after it, so they never overlap it; what remains is the overlap
        lists and the enable/RX flags.  So this runs before anything prunes
        those lists and before every flag flip (:meth:`Node.fail` /
        :meth:`Node.recover`, injected RX outages), and from the channel's
        run-exit hook before anyone reads the counters.

        Returns the end of the last arrival settled, or None.
        """
        if frontier is None:
            frontier = self.sim.frontier()
        unsettled = self._unsettled
        stats = self.stats
        latest = None
        while unsettled and unsettled[0] < frontier:
            latest, _, _, arrival = heappop(unsettled)
            if not self.enabled or not self.rx_enabled:
                stats.rx_outage += 1
                if self._trace_on:
                    self._trace_failure(arrival, RxOutcome.OFFLINE)
                continue
            a_start = arrival.start
            a_end = arrival.end
            for iv in self._tx_intervals:
                if iv.start < a_end and iv.end > a_start:
                    stats.rx_half_duplex += 1
                    outcome = RxOutcome.HALF_DUPLEX
                    break
            else:
                for other in self._arrivals:
                    if other is not arrival and other.start < a_end and other.end > a_start:
                        stats.rx_collision += 1
                        outcome = RxOutcome.COLLISION
                        break
                else:
                    stats.rx_noise += 1
                    outcome = RxOutcome.NOISE
            if self._trace_on:
                self._trace_failure(arrival, outcome)
            if self.on_rx_failure is not None:
                self.on_rx_failure(arrival, outcome)
        return latest

    def _trace_failure(self, arrival: Arrival, outcome: RxOutcome) -> None:
        """Trace a lost arrival at its end time (late, if it was settled)."""
        self._trace.emit(
            arrival.end,
            "phy.rx_fail",
            self.node_id,
            frame=arrival.frame.describe(),
            why=outcome.value,
        )

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _prune(self, intervals: List[_TxInterval]) -> None:
        horizon = self.sim.now - self._max_duration_s
        if intervals and intervals[0].end < horizon:
            intervals[:] = [iv for iv in intervals if iv.end >= horizon]
