"""Shared broadcast acoustic medium.

The channel connects every registered modem: a transmission is delivered to
each other modem within reception range as an :class:`Arrival` whose start
is offset by the pair's propagation delay and whose level comes from the
link budget.  Node positions are supplied by callables so mobility models
can move nodes without the channel knowing about them.

The physics is NS-3 UAN's "Default PER model and Default SINR", which the
paper uses: a pair's delay is its straight-line distance over a constant
sound speed (Table 2: 1.5 km/s), and an arrival decodes iff its SINR is at
or above one calibrated threshold (all or nothing).

Range semantics follow the paper: a hard communication range (Table 2:
1.5 km) bounds who can hear whom, matching "the collision occurs when two
or more packets [from neighbours] arrive at a sensor at the same time".
An optional ``interference_range_factor > 1`` extends delivery (at reduced
level) to model interference reaching past the decode range — used in
robustness ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..acoustic.geometry import Position
from ..acoustic.sinr import LinkBudget
from ..des.events import PRIORITY_HIGH
from ..des.simulator import Simulator
from .frame import Frame
from .modem import AcousticModem, Arrival
from .vectorized import Link, VectorLinkKernel

#: Paper Table 2 defaults.
DEFAULT_BITRATE_BPS = 12_000.0
DEFAULT_RANGE_M = 1500.0
DEFAULT_SOUND_SPEED_MPS = 1500.0

#: Half-width of the band around the decode pivot inside which a level's
#: "cannot decode alone" flag is decided by the exact scalar SINR instead
#: of the vectorized ``level - noise`` estimate.  The two differ by ~1e-13
#: dB (a few ULP through ``10 ** (x / 10)`` and ``log10``), so the band
#: leaves seven orders of magnitude to spare.
DECIDE_BAND_DB = 1e-6


@dataclass
class ChannelStats:
    """Aggregate channel counters.

    ``cache_hits`` / ``cache_misses`` count link-state pair lookups; their
    ratio is the headline number of the perf instrumentation layer.
    ``vector_batches`` counts vectorized kernel passes (row builds, partial
    refreshes and on-demand point-query recomputes) and ``rows_refreshed``
    counts stale rows brought back up to date — a static cell shows builds
    only (``rows_refreshed == 0``) while a mobile cell accumulates refreshes
    every mobility tick.

    The spatial-hash counters describe the reach cull: ``grid_candidates``
    accumulates the candidate-set size (3x3x3 cell neighborhood, excluding
    self) per broadcast — divide by ``broadcasts`` for the mean scan width,
    versus ``n - 1`` for the full scan — and ``grid_cells`` is a gauge of
    currently occupied cells.

    ``bulk_pushes`` / ``bulk_events`` describe the batched fan-out: one
    bulk push schedules every arrival of a broadcast through
    :meth:`EventQueue.push_bulk`, so their ratio is the mean scheduled
    fan-out per transmission.
    """

    broadcasts: int = 0
    deliveries: int = 0
    out_of_range_skips: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    vector_batches: int = 0
    rows_refreshed: int = 0
    grid_candidates: int = 0
    grid_cells: int = 0
    bulk_pushes: int = 0
    bulk_events: int = 0


class AcousticChannel:
    """Broadcast medium binding modems, propagation and the link budget.

    All geometry — broadcast fan-out, point queries and neighbour sets — is
    served by one :class:`~repro.phy.vectorized.VectorLinkKernel`
    (:attr:`kernel`): per-node position epochs keep un-moved pairs warm and
    a spatial hash culls each broadcast to the transmitter's cell
    neighborhood.  Every broadcast's arrivals are scheduled as one
    pre-sorted batch through :meth:`Simulator.push_bulk`.

    An arrival decodes iff its SINR is at least :attr:`decode_threshold_db`.
    Each delivery is classified once, when its link row's fan-out is
    built: a received level whose interference-free SINR under the
    quietest reachable noise floor (see :meth:`bound_noise_floor`) is
    below the threshold goes to :meth:`AcousticModem.begin_interferer` and
    is settled without a decode; every other one to
    :meth:`AcousticModem.begin_arrival`.  The channel registers the
    modems' settlement as a simulator run-exit hook, so their counters are
    complete whenever a run returns.

    Args:
        sim: The simulation kernel.
        bitrate_bps: Channel bitrate (paper: 12 kbps).
        max_range_m: Hard communication range (paper: 1.5 km).
        interference_range_factor: Deliver (as interference) up to
            ``factor * max_range_m``; 1.0 reproduces the paper's model.
        sound_speed_mps: Constant sound speed of every straight-line
            delay (paper: 1.5 km/s).
    """

    def __init__(
        self,
        sim: Simulator,
        bitrate_bps: float = DEFAULT_BITRATE_BPS,
        max_range_m: float = DEFAULT_RANGE_M,
        interference_range_factor: float = 1.0,
        sound_speed_mps: float = DEFAULT_SOUND_SPEED_MPS,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if max_range_m <= 0:
            raise ValueError("range must be positive")
        if interference_range_factor < 1.0:
            raise ValueError("interference_range_factor must be >= 1")
        if sound_speed_mps <= 0:
            raise ValueError("sound speed must be positive")
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self.max_range_m = max_range_m
        self.sound_speed_mps = sound_speed_mps
        self.link_budget = LinkBudget()
        # Calibrated so the decode range equals the configured communication
        # range: a lone frame decodes iff it was sent from within
        # max_range_m, while signals from farther out (when
        # interference_range_factor > 1) act as interference.  The 0.5 dB
        # margin lets a frame from exactly max_range_m decode despite
        # floating-point dB/linear round-trips.
        self.decode_threshold_db = self.link_budget.snr_db(max_range_m) - 0.5
        self.interference_range_factor = interference_range_factor
        #: Transient network-wide noise-floor elevation in dB (fault
        #: injection: ship-noise windows).  0.0 — always, in clean runs —
        #: leaves every decode arithmetically untouched; noise bursts
        #: raise and later restore it.  It must never drop below the bound
        #: declared with :meth:`bound_noise_floor` (0.0 by default).
        self.extra_noise_db = 0.0
        self._quietest_noise_db = 0.0
        self.stats = ChannelStats()
        self._members: Dict[int, Tuple[AcousticModem, Callable[[], Position]]] = {}
        self.kernel = VectorLinkKernel(
            self._members,
            self.sound_speed_mps,
            self.max_range_m,
            self.max_range_m * self.interference_range_factor,
            self.stats,
            self.undecodable,
        )
        sim.run_exit_hooks.append(self._settle_modems)

    # ------------------------------------------------------------------
    def create_modem(self, node_id: int, position_fn: Callable[[], Position]) -> AcousticModem:
        """Create, register and return a modem for ``node_id``."""
        if node_id in self._members:
            raise ValueError(f"node id {node_id} already registered")
        modem = AcousticModem(self.sim, node_id, self)
        self._members[node_id] = (modem, position_fn)
        self.kernel.add_node(node_id)
        return modem

    def note_position_change(self, node_id: Optional[int] = None) -> None:
        """Invalidate cached link state for a moved node.

        With a ``node_id`` only that node's epoch bumps, so every pair not
        touching it stays warm (the point of per-node epochs); with ``None``
        every epoch bumps and all positions are re-read — the conservative
        form for callers that mutated positions out-of-band.
        """
        self.kernel.invalidate(node_id)

    def position_of(self, node_id: int) -> Position:
        """Current position of a registered node."""
        return self._members[node_id][1]()

    def _link(self, a: int, b: int) -> Link:
        """The directed pair's link state, served by ``a``'s fresh row."""
        kernel = self.kernel
        return kernel.ensure_pair(kernel.row(a), kernel.index_of(b))

    def distance_m(self, a: int, b: int) -> float:
        """Current geometric distance between two registered nodes."""
        return self._link(a, b)[0]

    def propagation_delay_s(self, a: int, b: int) -> float:
        """Ground-truth propagation delay between two registered nodes."""
        return self._link(a, b)[1]

    def neighbors_of(self, node_id: int) -> Tuple[int, ...]:
        """Ground-truth one-hop neighbours (in decode range, alive) now."""
        # Geometry comes from the kernel; liveness is read fresh so failure
        # injection is reflected without an epoch bump.
        kernel = self.kernel
        members = self._members
        return tuple(
            other
            for other in kernel.decode_ids(kernel.row(node_id))
            if members[other][0].enabled
        )

    def bound_noise_floor(self, lowest_extra_noise_db: float) -> None:
        """Declare the lowest :attr:`extra_noise_db` the run can reach.

        Quieting noise bursts lower the floor, which could make a level
        decodable that fails at 0 dB extra noise, so the classification
        prices every level at this bound.  It must be set before the first
        broadcast: arrivals already classified cannot be re-decided.
        """
        if self.stats.broadcasts:
            raise RuntimeError("the noise floor bound must be set before any broadcast")
        self._quietest_noise_db = min(0.0, lowest_extra_noise_db)

    def undecodable(self, levels_db: np.ndarray) -> List[bool]:
        """Per received level: True iff it cannot decode even alone.

        Exactly ``sinr_db_from_levels(level, (), extra_noise_db=floor) <
        decode_threshold_db`` at the quietest reachable ``floor``.  SINR
        only falls from there — interferers and louder noise add power —
        so such an arrival fails whatever overlaps it.  One vector pass
        estimates every level's SINR as ``level - (noise + floor)``; where
        the answer would differ within :data:`DECIDE_BAND_DB` of that
        estimate, the exact scalar expression decides.
        """
        floor = self._quietest_noise_db
        threshold = self.decode_threshold_db
        sinr_db = levels_db - (self.link_budget.noise_level_db() + floor)
        lost = sinr_db + DECIDE_BAND_DB < threshold
        unsure = np.nonzero(lost != (sinr_db - DECIDE_BAND_DB < threshold))[0]
        lost = lost.tolist()
        sinr_alone = self.link_budget.sinr_db_from_levels
        for j in unsure.tolist():
            lost[j] = sinr_alone(float(levels_db[j]), (), extra_noise_db=floor) < threshold
        return lost

    def _settle_modems(self, frontier: Tuple[float, ...]) -> Optional[float]:
        """Run-exit hook: settle every modem's arrivals up to ``frontier``."""
        latest = None
        for modem, _ in self._members.values():
            end = modem.settle(frontier)
            if end is not None and (latest is None or end > latest):
                latest = end
        return latest

    # ------------------------------------------------------------------
    def broadcast(self, tx_modem: AcousticModem, frame: Frame, duration_s: float) -> None:
        """Deliver ``frame`` to every modem in reach, after propagation.

        The in-reach receivers' callbacks come from the kernel's cached
        per-row fan-out, in registration order, with the row's float64
        delay and level vectors.  Arrival times are one vectorized add
        over the delays (IEEE-identical to a scalar ``now + delay``), and
        the whole batch is heap-inserted by one
        :meth:`Simulator.push_bulk` with sequence numbers in target order —
        so pop order, and every downstream RNG draw, matches one
        ``push_at`` per target.
        """
        stats = self.stats
        stats.broadcasts += 1
        tx_id = tx_modem.node_id
        kernel = self.kernel
        row = kernel.row(tx_id)
        callbacks = kernel.deliveries(row)
        stats.out_of_range_skips += row.skips
        stats.grid_candidates += row.candidate_count
        if not callbacks:
            return
        delays = row.delivery_delays
        starts = self.sim.now + delays
        starts_l = starts.tolist()
        arrivals = [
            Arrival(frame, tx_id, start, end, level, delay)
            for start, end, level, delay in zip(
                starts_l,
                (starts + duration_s).tolist(),
                row.delivery_levels.tolist(),
                delays.tolist(),
            )
        ]
        # High priority so arrivals register before same-instant MAC logic;
        # zip(arrivals) builds the per-event 1-tuple args at C speed.
        self.sim.push_bulk(starts_l, callbacks, list(zip(arrivals)), PRIORITY_HIGH)
        count = len(callbacks)
        stats.deliveries += count
        stats.bulk_pushes += 1
        stats.bulk_events += count
