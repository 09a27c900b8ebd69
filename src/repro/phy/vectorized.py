"""NumPy struct-of-arrays broadcast kernel with spatial-hash reach culling.

The per-receiver Python loop in :meth:`AcousticChannel.broadcast` was the
simulator's residual hot spot after the link-state cache PR: every
transmission walked the member dict, looked each ordered pair up in a hash
map, and on every 5 s mobility tick the *whole* cache was discarded even
though only the moved nodes' links changed (~25% hit rate on mobile Table 2
cells).  This module replaces the per-pair storage with contiguous
struct-of-arrays state so that one transmission computes distance,
propagation delay, received level and in-reach masks for *all* receivers in
a single vectorized pass, and replaces the global position epoch with
**per-node epochs** so un-moved pairs stay warm across mobility ticks.

Per-node epochs alone still hit an O(n²) wall when the mobility model moves
*every* node each tick: each broadcast then refreshes a full O(n) row even
though acoustic reach is bounded and only a handful of receivers matter.
The spatial hash grid makes broadcast cost proportional to *plausible
receivers* instead.

Spatial hash grid
-----------------
Node positions are binned into cubic cells of side ``reach_m`` (decode
range x interference factor).  Any receiver within reach of a transmitter
must then sit in the 3x3x3 cell neighborhood around the transmitter's
cell, so :meth:`row` gathers only those **candidate** indices and
computes/refreshes exactly them.  Non-candidates are provably out of reach
— their masks stay ``False`` without ever touching their entries — and the
candidate set is finished with an *exact* distance mask, so results stay
bit-identical to the full scan.  Cell membership only changes when a node
crosses a cell boundary (rare at drift speeds), and candidate gathers are
reused until some node changes cell (``cells_epoch``).  A point query for a
non-candidate pair recomputes that one entry on demand
(:meth:`ensure_pair`).

Layout
------
:class:`VectorLinkKernel` keeps, in registration order (which is also the
member-dict iteration order of the full scan):

* ``xs / ys / zs`` — node coordinates as float64 arrays;
* ``epoch`` — one int64 counter per node, bumped when *that* node moves;
* ``total_epoch`` — the sum of all bumps, used as an O(1) "did anything
  move since this row was refreshed?" check per broadcast;
* a cell hash (``dict[(cx, cy, cz)] -> [indices]``) for reach culling;
* per-transmitter :class:`RowState` rows holding the pair's distance,
  delay, level, reach/decode masks and per-pair epoch **stamps**.

A pair's stamp records ``epoch[tx] + epoch[rx]`` at compute time.  Epochs
are monotonic, so the stamp equals the current sum *iff neither endpoint
moved* — a mobility tick therefore dirties exactly the moved rows/columns
and a row refresh recomputes only its stale entries, vectorized over the
candidate set.  A stamp of ``-1`` marks a pair never computed (or evicted
from the candidate neighborhood before ever being computed).

Bit-identity
------------
Results are bit-identical with the scalar full-scan reference (gated by the
equivalence matrix and property tests): subtraction, multiplication,
``sqrt`` and division round identically in NumPy and CPython, distances are
squared with explicit multiplies on both paths (see
:meth:`Position.distance_to`), and the one operation NumPy's SIMD kernels
are allowed to round differently — ``log10`` — stays on libm inside
:meth:`LinkBudget.received_level_db_batch`.  The grid cull never changes a
computed value — it only skips computing entries whose masks are provably
``False``.

Memory
------
Row storage is bounded: at most :data:`DEFAULT_ROW_BUDGET_ENTRIES` cached
pair entries (~``budget * 34`` bytes).  Beyond that — thousand-node ``scale`` sweeps —
rows are evicted least-recently-used; recomputing an evicted row is one
vectorized pass over the candidate set, not a per-pair scalar walk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..acoustic.geometry import Position
from ..acoustic.sinr import LinkBudget

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelStats
    from .modem import AcousticModem

#: Default cap on cached pair entries across all rows (~170 MB worst case).
DEFAULT_ROW_BUDGET_ENTRIES = 4_000_000

#: Stamp value marking a pair entry that has never been computed.
_NEVER = -1


class RowState:
    """One transmitter's link state against every registered receiver.

    Attributes:
        n: Member count the row was sized for (a membership change makes
            the row unusable and it is rebuilt from scratch).
        idx: The transmitter's member index.
        total_epoch: Kernel ``total_epoch`` at the last freshness check —
            when it still matches, nothing anywhere moved and the row is
            served without touching any array.
        stamp: Per-pair epoch sums at compute time (staleness detector);
            ``-1`` marks entries never computed (grid-culled).
        distance_m / delay_s / level_db: Pair scalars, aligned with the
            registration order (only candidate entries are kept fresh).
        in_reach: Delivery reach mask (decode range × interference factor).
        in_decode: Hard communication-range mask (neighbour relation).
        candidates: Sorted member indices in the transmitter's 3x3x3 cell
            neighborhood.
        cands_epoch: Kernel ``cells_epoch`` when ``candidates`` was
            gathered; a mismatch forces a re-gather.
        candidate_count: Candidates excluding self — the per-broadcast
            figure behind ``grid_candidates``.
        deliveries: Lazily built broadcast fan-out list of
            ``(rx_id, modem, delay_s, level_db)`` for in-reach receivers,
            in registration order; invalidated by any refresh.
        skips: Out-of-reach receiver count backing the channel's
            ``out_of_range_skips`` counter (valid once ``deliveries`` is).
        decode_ids: Lazily built tuple of in-decode-range node ids.
        delivery_delays: The in-reach entries' delays as a contiguous
            float64 vector, aligned with ``deliveries`` (bulk fan-out).
        delivery_callbacks: The in-reach modems' bound ``begin_arrival``
            (or, for a level that cannot decode alone, ``begin_interferer``)
            methods, aligned with ``deliveries`` (bulk fan-out).
    """

    __slots__ = (
        "n",
        "idx",
        "total_epoch",
        "stamp",
        "distance_m",
        "delay_s",
        "level_db",
        "in_reach",
        "in_decode",
        "candidates",
        "cands_epoch",
        "candidate_count",
        "deliveries",
        "skips",
        "decode_ids",
        "delivery_delays",
        "delivery_callbacks",
    )

    def __init__(self, n: int, idx: int) -> None:
        self.n = n
        self.idx = idx
        self.total_epoch = -1
        self.stamp = np.full(n, _NEVER, dtype=np.int64)
        self.distance_m = np.empty(n, dtype=np.float64)
        self.delay_s = np.empty(n, dtype=np.float64)
        self.level_db = np.empty(n, dtype=np.float64)
        self.in_reach = np.zeros(n, dtype=bool)
        self.in_decode = np.zeros(n, dtype=bool)
        self.candidates = np.empty(0, dtype=np.intp)
        self.cands_epoch = -1
        self.candidate_count = 0
        self.deliveries: Optional[List[Tuple[int, "AcousticModem", float, float]]] = None
        self.skips = 0
        self.decode_ids: Optional[Tuple[int, ...]] = None
        self.delivery_delays: Optional[np.ndarray] = None
        self.delivery_callbacks: Optional[List[Callable]] = None

    def drop_products(self) -> None:
        """Forget the mask-derived products after the masks may have changed."""
        self.deliveries = None
        self.decode_ids = None
        self.delivery_delays = None
        self.delivery_callbacks = None


class VectorLinkKernel:
    """Struct-of-arrays link-state store with spatial-hash reach culling.

    The kernel shares the channel's live member registry (``node_id ->
    (modem, position_fn)``); the channel reports movement through
    :meth:`invalidate` (per node, or globally with ``None``) and
    registration through :meth:`add_node`.  Hits and misses are counted
    into the owning channel's :class:`~repro.phy.channel.ChannelStats`
    with whole-row granularity: a broadcast whose row is warm counts
    ``n - 1`` hits, a refresh counts one miss per stale pair and one hit
    per still-warm pair.  ``undecodable`` maps a vector of received levels
    to one flag per level — True where the arrival cannot decode even
    alone — and picks each delivery's receive callback.
    """

    __slots__ = (
        "_members",
        "_undecodable",
        "_sound_speed_mps",
        "_max_range_m",
        "_reach_m",
        "_stats",
        "_ids",
        "_index",
        "_xs",
        "_ys",
        "_zs",
        "_epoch",
        "_n",
        "total_epoch",
        "_rows",
        "_max_rows",
        "_lru_active",
        "_cell_m",
        "_cells",
        "_cell_key",
        "cells_epoch",
    )

    def __init__(
        self,
        members: Dict[int, Tuple["AcousticModem", Callable[[], Position]]],
        sound_speed_mps: float,
        max_range_m: float,
        reach_m: float,
        stats: "ChannelStats",
        undecodable: Callable[[np.ndarray], List[bool]],
    ) -> None:
        self._members = members
        self._undecodable = undecodable
        self._sound_speed_mps = sound_speed_mps
        self._max_range_m = max_range_m
        self._reach_m = reach_m
        self._stats = stats
        self._ids: List[int] = []
        self._index: Dict[int, int] = {}
        capacity = 64
        self._xs = np.empty(capacity, dtype=np.float64)
        self._ys = np.empty(capacity, dtype=np.float64)
        self._zs = np.empty(capacity, dtype=np.float64)
        self._epoch = np.zeros(capacity, dtype=np.int64)
        self._n = 0
        #: Monotonic sum of every per-node epoch bump (plus registrations);
        #: rows compare against it for the O(1) nothing-moved fast path.
        self.total_epoch = 0
        self._rows: "OrderedDict[int, RowState]" = OrderedDict()
        self._max_rows = DEFAULT_ROW_BUDGET_ENTRIES
        self._lru_active = False
        #: Cell side: one reach radius, so a 3x3x3 neighborhood is a strict
        #: superset of the in-reach ball from anywhere inside the center cell.
        self._cell_m = reach_m
        self._cells: Dict[Tuple[int, int, int], List[int]] = {}
        self._cell_key: List[Tuple[int, int, int]] = []
        #: Bumped whenever any node's cell assignment changes (moves across
        #: a cell boundary, registration): rows re-gather candidates only
        #: when this moved, so within-cell drift reuses the gathered set.
        self.cells_epoch = 0
        for node_id in members:
            self.add_node(node_id)

    # ------------------------------------------------------------------
    # Membership and movement
    # ------------------------------------------------------------------
    def _cell_of(self, x: float, y: float, z: float) -> Tuple[int, int, int]:
        cell = self._cell_m
        return (
            int(math.floor(x / cell)),
            int(math.floor(y / cell)),
            int(math.floor(z / cell)),
        )

    def add_node(self, node_id: int) -> None:
        """Register a node, growing the coordinate arrays.

        Bumps :attr:`total_epoch` so cached neighbour sets recompute, and
        existing rows (sized for the old member count) rebuild on next use
        — so a freshly registered modem is visible to the very next query.
        """
        if node_id in self._index:
            return
        idx = self._n
        if idx == len(self._xs):
            self._grow()
        pos = self._members[node_id][1]()
        self._xs[idx] = pos.x
        self._ys[idx] = pos.y
        self._zs[idx] = pos.z
        self._epoch[idx] = 0
        self._ids.append(node_id)
        self._index[node_id] = idx
        self._n = idx + 1
        self.total_epoch += 1
        key = self._cell_of(pos.x, pos.y, pos.z)
        self._cell_key.append(key)
        self._cells.setdefault(key, []).append(idx)
        self.cells_epoch += 1
        self._stats.grid_cells = len(self._cells)
        self._max_rows = max(16, DEFAULT_ROW_BUDGET_ENTRIES // self._n)
        self._lru_active = self._n > self._max_rows

    def _grow(self) -> None:
        capacity = len(self._xs) * 2
        for name in ("_xs", "_ys", "_zs", "_epoch"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            if name == "_epoch":
                fresh[self._n :] = 0
            setattr(self, name, fresh)

    def _move_node(self, idx: int, pos: Position) -> None:
        """Update one node's coordinates, epoch and cell."""
        self._xs[idx] = pos.x
        self._ys[idx] = pos.y
        self._zs[idx] = pos.z
        self._epoch[idx] += 1
        key = self._cell_of(pos.x, pos.y, pos.z)
        old = self._cell_key[idx]
        if key != old:
            bucket = self._cells[old]
            bucket.remove(idx)
            if not bucket:
                del self._cells[old]
            self._cells.setdefault(key, []).append(idx)
            self._cell_key[idx] = key
            self.cells_epoch += 1
            self._stats.grid_cells = len(self._cells)

    def invalidate(self, node_id: Optional[int] = None) -> None:
        """Note that ``node_id`` moved (or, with ``None``, that anything
        may have: every epoch bumps and every position is re-read)."""
        if node_id is None:
            members = self._members
            ids = self._ids
            # Bumps every epoch unconditionally, which is exactly the
            # conservative contract of a global invalidation.
            for idx in range(self._n):
                self._move_node(idx, members[ids[idx]][1]())
            self.total_epoch += 1
            return
        idx = self._index[node_id]
        self._move_node(idx, self._members[node_id][1]())
        self.total_epoch += 1

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, node_id: int) -> RowState:
        """Fresh link-state row for transmitter ``node_id``.

        Fast path — nothing anywhere moved since the last check — is two
        integer comparisons.  Otherwise stale pairs are recomputed in one
        vectorized pass over exactly the dirty entries of the candidate
        set.
        """
        idx = self._index[node_id]
        rows = self._rows
        row = rows.get(idx)
        n = self._n
        stats = self._stats
        if row is not None and row.n == n:
            if self._lru_active:
                rows.move_to_end(idx)
            if row.total_epoch == self.total_epoch:
                stats.cache_hits += n - 1
                return row
            self._refresh(idx, row)
            return row
        if row is not None:
            del rows[idx]
        row = self._build(idx)
        rows[idx] = row
        if self._lru_active and len(rows) > self._max_rows:
            rows.popitem(last=False)
        return row

    def _candidates_for(self, idx: int) -> np.ndarray:
        """Sorted member indices in the 3x3x3 neighborhood of ``idx``'s cell.

        A strict superset of every node within ``reach_m`` of the
        transmitter (cell side == reach), finished by the exact distance
        mask in :meth:`_compute`; always contains ``idx`` itself.
        """
        cx, cy, cz = self._cell_key[idx]
        out: List[int] = []
        get = self._cells.get
        for kx in (cx - 1, cx, cx + 1):
            for ky in (cy - 1, cy, cy + 1):
                bucket = get((kx, ky, cz - 1))
                if bucket:
                    out.extend(bucket)
                bucket = get((kx, ky, cz))
                if bucket:
                    out.extend(bucket)
                bucket = get((kx, ky, cz + 1))
                if bucket:
                    out.extend(bucket)
        cands = np.array(out, dtype=np.intp)
        cands.sort()
        return cands

    def _compute(self, idx: int, row: RowState, targets: np.ndarray) -> None:
        """Vectorized pass filling ``row`` at ``targets`` (member indices).

        Also stamps the computed pairs' epoch sums, so every compute path
        (build, refresh, on-demand point query) maintains the staleness
        detector identically.  The derived products are the caller's to
        drop: a point query recomputes only pairs whose masks are provably
        unchanged, so it keeps them.
        """
        xs, ys, zs = self._xs, self._ys, self._zs
        x0, y0, z0 = xs[idx], ys[idx], zs[idx]
        dx = xs[targets] - x0
        dy = ys[targets] - y0
        dz = zs[targets] - z0
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        row.distance_m[targets] = dist
        # IEEE division rounds identically in NumPy and CPython, so each
        # delay equals the scalar ``distance / speed``.
        row.delay_s[targets] = dist / self._sound_speed_mps
        row.level_db[targets] = LinkBudget.received_level_db_batch(dist)
        row.in_reach[targets] = dist <= self._reach_m
        row.in_decode[targets] = dist <= self._max_range_m
        row.stamp[targets] = self._epoch[idx] + self._epoch[targets]
        # The self pair is never delivered to and never queried.
        row.in_reach[idx] = False
        row.in_decode[idx] = False
        self._stats.vector_batches += 1

    def _build(self, idx: int) -> RowState:
        row = RowState(self._n, idx)
        cands = self._candidates_for(idx)
        row.candidates = cands
        row.cands_epoch = self.cells_epoch
        row.candidate_count = len(cands) - 1
        self._compute(idx, row, cands)
        self._stats.cache_misses += len(cands) - 1
        row.total_epoch = self.total_epoch
        return row

    def _refresh(self, idx: int, row: RowState) -> None:
        n = self._n
        stats = self._stats
        cands = row.candidates
        if row.cands_epoch != self.cells_epoch:
            cands = self._candidates_for(idx)
            departed = np.setdiff1d(row.candidates, cands, assume_unique=True)
            if departed.size:
                # A node that left the neighborhood is provably out of
                # reach; clear its (possibly stale-True) masks and mark
                # its entry never-computed so re-entry recomputes.
                row.in_reach[departed] = False
                row.in_decode[departed] = False
                row.stamp[departed] = _NEVER
                row.drop_products()
            row.candidates = cands
            row.cands_epoch = self.cells_epoch
            row.candidate_count = len(cands) - 1
        expected = self._epoch[idx] + self._epoch[cands]
        stale = row.stamp[cands] != expected
        stale[np.searchsorted(cands, idx)] = False
        dirty = cands[stale]
        if dirty.size:
            self._compute(idx, row, dirty)
            row.drop_products()
            stats.rows_refreshed += 1
            stats.cache_misses += int(dirty.size)
            stats.cache_hits += n - 1 - int(dirty.size)
        else:
            stats.cache_hits += n - 1
        row.total_epoch = self.total_epoch

    def ensure_pair(self, row: RowState, rx_idx: int) -> None:
        """Validate one pair entry for a point query, recomputing on demand.

        Whole-row freshness (:meth:`row`) guarantees masks, but a grid-culled
        pair's scalar fields (distance, delay, level) may be stale or never
        computed.  Point queries (``distance_m``/``propagation_delay_s``)
        call this to recompute exactly that entry — one single-element
        vectorized pass, bit-identical with the batch path by construction.

        Only rows fresh from :meth:`row` reach here, so a stale entry is
        always a non-candidate: provably out of reach, its masks stay
        ``False`` and the row's derived products survive the recompute.
        """
        tx_idx = row.idx
        if row.stamp[rx_idx] != self._epoch[tx_idx] + self._epoch[rx_idx]:
            self._compute(tx_idx, row, np.array([rx_idx], dtype=np.intp))
            self._stats.cache_misses += 1

    # ------------------------------------------------------------------
    # Derived per-row products
    # ------------------------------------------------------------------
    def deliveries(
        self, row: RowState
    ) -> List[Tuple[int, "AcousticModem", float, float]]:
        """Broadcast fan-out list for a fresh row (built once per refresh).

        Entries are ``(rx_id, modem, delay_s, level_db)`` python scalars in
        registration order — exactly the values and order the full scan
        produces — so the hot loop does no NumPy access per delivery.  The
        in-reach delay vector and the bound receive callbacks are cached
        alongside the list for the channel's batched fan-out: a receiver
        whose level the ``undecodable`` classifier rules out gets
        ``begin_interferer``, every other one ``begin_arrival``.
        """
        built = row.deliveries
        if built is not None:
            return built
        js = np.nonzero(row.in_reach)[0]
        members = self._members
        ids = self._ids
        delays = row.delay_s
        levels = row.level_db
        built = [
            (ids[j], members[ids[j]][0], float(delays[j]), float(levels[j]))
            for j in js.tolist()
        ]
        row.deliveries = built
        row.skips = row.n - 1 - len(built)
        row.delivery_delays = delays[js]
        row.delivery_callbacks = [
            modem.begin_interferer if lost else modem.begin_arrival
            for (_, modem, _, _), lost in zip(built, self._undecodable(levels[js]))
        ]
        return built

    def decode_ids(self, row: RowState) -> Tuple[int, ...]:
        """Ids within hard decode range, in registration order."""
        ids = row.decode_ids
        if ids is None:
            members_ids = self._ids
            ids = tuple(
                members_ids[j] for j in np.nonzero(row.in_decode)[0].tolist()
            )
            row.decode_ids = ids
        return ids

    def index_of(self, node_id: int) -> int:
        return self._index[node_id]
