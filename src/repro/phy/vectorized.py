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
computes/refreshes exactly them.  Non-candidates are provably out of reach,
so a row stores no entry for them at all, and the candidate set is
finished with an *exact* distance mask, so results stay bit-identical to
the full scan.  Cell membership only changes when a node crosses a cell
boundary (rare at drift speeds), and candidate gathers are reused until
some node changes cell (``cells_epoch``).  A point query for a
non-candidate pair computes that one pair on demand and stores nothing
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
* per-transmitter :class:`RowState` rows.

A row's arrays — the pair's distance, delay, level, reach/decode masks and
per-pair epoch **stamp** — are aligned with ``row.candidates``, the sorted
member indices of the transmitter's 3x3x3 cell neighbourhood (the
transmitter itself included): entry ``p`` describes the pair with member
``candidates[p]``.  Sorted member indices are registration order, so the
fan-out built from a row keeps the full scan's order.

A pair's stamp records ``epoch[tx] + epoch[rx]`` at compute time.  Epochs
are monotonic, so the stamp equals the current sum *iff neither endpoint
moved* — a mobility tick therefore dirties exactly the moved rows/columns
and a row refresh recomputes only its stale entries, vectorized over the
candidate set.  When a row re-gathers its candidates, each retained
entry moves to its new position with its stamp, so it is not recomputed;
an entrant gets the stamp ``-1`` (never computed) and a departed member's
entry is dropped.

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
A row costs 42 bytes per candidate: 34 for its six arrays (an int64
stamp, three float64 scalars, two bool masks) and 8 for the candidate
index.  Its broadcast fan-out adds at most 24 more per candidate — one
float64 delay, one float64 level and one 8-byte reference per in-reach
entry — because the receive callbacks it references are bound once per
member at registration, not once per entry.  At the Table 2 density a
row holds ~80-200 candidates whatever the network size, so link state
grows as O(n·k), not O(n²).  The rows' stored entries, summed, are
capped at :data:`DEFAULT_ROW_BUDGET_ENTRIES`, which bounds what the
rows hold to at most 42 + 24 bytes per stored entry (~264 MB at the
cap, before fixed per-row object overhead); past it rows are evicted
least-recently-used, and an evicted row is rebuilt by one vectorized pass
over its candidate set.
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

#: Default cap on the pair entries stored across all cached rows
#: (summed ``len(row.candidates)``): each costs 42 bytes of row arrays
#: plus at most 24 of fan-out products, so rows hold <= ~264 MB at the cap.
DEFAULT_ROW_BUDGET_ENTRIES = 4_000_000

#: Stamp value marking a pair entry that has never been computed.
_NEVER = -1

#: One directed pair's ``(distance_m, delay_s, level_db, in_reach,
#: in_decode)`` as Python scalars, the answer to a point query.
Link = Tuple[float, float, float, bool, bool]


class RowState:
    """One transmitter's link state against its candidate receivers.

    Every array is aligned with :attr:`candidates`: entry ``p`` is the
    pair with member index ``candidates[p]``.

    Attributes:
        n: Member count the row was built for (the kernel drops every row
            when a node registers).
        idx: The transmitter's member index.
        total_epoch: Kernel ``total_epoch`` at the last freshness check —
            when it still matches, nothing anywhere moved and the row is
            served without touching any array.
        candidates: Sorted member indices in the transmitter's 3x3x3 cell
            neighborhood, the transmitter included.
        self_pos: The transmitter's own position in :attr:`candidates`.
        cands_epoch: Kernel ``cells_epoch`` when ``candidates`` was
            gathered; a mismatch forces a re-gather.
        candidate_count: Candidates excluding self — the per-broadcast
            figure behind ``grid_candidates``.
        stamp: Per-pair epoch sums at compute time (staleness detector);
            ``-1`` marks entries never computed (fresh entrants).
        distance_m / delay_s / level_db: Pair scalars.
        in_reach: Delivery reach mask (decode range × interference factor).
        in_decode: Hard communication-range mask (neighbour relation).
        skips: Out-of-reach receiver count backing the channel's
            ``out_of_range_skips`` counter (valid once the fan-out is built).
        decode_ids: Lazily built tuple of in-decode-range node ids.
        delivery_delays / delivery_levels: The in-reach entries' delays and
            received levels as float64 vectors, in registration order
            (the broadcast fan-out; built once per refresh, dropped by any
            change to the masks).
        delivery_callbacks: The in-reach receivers' receive callbacks,
            aligned with ``delivery_delays``: references to the kernel's
            shared per-member ``begin_arrival`` (or, for a level that
            cannot decode alone, ``begin_interferer``) bound methods, so a
            row makes no per-entry object.  ``None`` until built.
    """

    __slots__ = (
        "n",
        "idx",
        "total_epoch",
        "candidates",
        "self_pos",
        "cands_epoch",
        "candidate_count",
        "stamp",
        "distance_m",
        "delay_s",
        "level_db",
        "in_reach",
        "in_decode",
        "skips",
        "decode_ids",
        "delivery_delays",
        "delivery_levels",
        "delivery_callbacks",
    )

    def __init__(self, n: int, idx: int) -> None:
        self.n = n
        self.idx = idx
        self.total_epoch = -1
        self.cands_epoch = -1
        self.skips = 0
        self.decode_ids: Optional[Tuple[int, ...]] = None
        self.delivery_delays: Optional[np.ndarray] = None
        self.delivery_levels: Optional[np.ndarray] = None
        self.delivery_callbacks: Optional[List[Callable]] = None

    def set_candidates(self, candidates: np.ndarray, cells_epoch: int) -> None:
        """Adopt a freshly gathered candidate set (the arrays are the caller's)."""
        self.candidates = candidates
        self.self_pos = int(np.searchsorted(candidates, self.idx))
        self.cands_epoch = cells_epoch
        self.candidate_count = len(candidates) - 1

    def position(self, member_idx: int) -> int:
        """``member_idx``'s entry position in this row, or -1 if it has none."""
        cands = self.candidates
        pos = int(np.searchsorted(cands, member_idx))
        if pos < len(cands) and cands[pos] == member_idx:
            return pos
        return -1

    def link_at(self, pos: int) -> Link:
        """The stored entry at ``pos`` as Python scalars."""
        return (
            float(self.distance_m[pos]),
            float(self.delay_s[pos]),
            float(self.level_db[pos]),
            bool(self.in_reach[pos]),
            bool(self.in_decode[pos]),
        )

    def product_bytes(self) -> int:
        """Bytes held by the fan-out products: 24 per in-reach entry (a
        delay, a level and a callback reference), 0 until built."""
        callbacks = self.delivery_callbacks
        if callbacks is None:
            return 0
        return self.delivery_delays.nbytes + self.delivery_levels.nbytes + 8 * len(callbacks)

    def drop_products(self) -> None:
        """Forget the mask-derived products after the masks may have changed."""
        self.decode_ids = None
        self.delivery_delays = None
        self.delivery_levels = None
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
        "_receivers",
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
        "_budget",
        "stored_entries",
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
        #: Per member index, its modem's ``(begin_arrival,
        #: begin_interferer)`` bound once; rows' fan-outs share them.
        self._receivers: List[Tuple[Callable, Callable]] = []
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
        self._budget = DEFAULT_ROW_BUDGET_ENTRIES
        #: Pair entries held by the cached rows: ``sum(len(row.candidates))``.
        self.stored_entries = 0
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
        drops every cached row (each was built for the old member count)
        — so a freshly registered modem is visible to the very next query.
        """
        if node_id in self._index:
            return
        idx = self._n
        if idx == len(self._xs):
            self._grow()
        modem, position_fn = self._members[node_id]
        pos = position_fn()
        self._xs[idx] = pos.x
        self._ys[idx] = pos.y
        self._zs[idx] = pos.z
        self._epoch[idx] = 0
        self._ids.append(node_id)
        self._index[node_id] = idx
        self._receivers.append((modem.begin_arrival, modem.begin_interferer))
        self._n = idx + 1
        self.total_epoch += 1
        key = self._cell_of(pos.x, pos.y, pos.z)
        self._cell_key.append(key)
        self._cells.setdefault(key, []).append(idx)
        self.cells_epoch += 1
        self._stats.grid_cells = len(self._cells)
        self._rows.clear()
        self.stored_entries = 0
        # Rows store at most n entries each, so below n * n the cap cannot
        # be reached and the LRU bookkeeping is skipped.
        self._lru_active = self._n * self._n > self._budget

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
        if row is not None:
            if self._lru_active:
                rows.move_to_end(idx)
            if row.total_epoch == self.total_epoch:
                self._stats.cache_hits += self._n - 1
                return row
            self._refresh(idx, row)
        else:
            row = self._build(idx)
            rows[idx] = row
        if self._lru_active and self.stored_entries > self._budget:
            self._evict()
        return row

    def _evict(self) -> None:
        """Drop least-recently-used rows until the stored entries fit the
        budget; the row just served (the most recent) always stays."""
        rows = self._rows
        while self.stored_entries > self._budget and len(rows) > 1:
            _, evicted = rows.popitem(last=False)
            self.stored_entries -= len(evicted.candidates)

    def _candidates_for(self, idx: int) -> np.ndarray:
        """Sorted member indices in the 3x3x3 neighborhood of ``idx``'s cell.

        A strict superset of every node within ``reach_m`` of the
        transmitter (cell side == reach), finished by the exact distance
        mask in :meth:`_links`; always contains ``idx`` itself.
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

    def _links(
        self, idx: int, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One vectorized pass from transmitter ``idx`` to member indices
        ``targets``: ``(distance, delay, level, in_reach, in_decode, stamp)``.

        Every compute path (build, refresh, point query) goes through
        here, so each stored or served value comes from the same
        element-wise expressions.
        """
        xs, ys, zs = self._xs, self._ys, self._zs
        dx = xs[targets] - xs[idx]
        dy = ys[targets] - ys[idx]
        dz = zs[targets] - zs[idx]
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        self._stats.vector_batches += 1
        return (
            dist,
            # IEEE division rounds identically in NumPy and CPython, so
            # each delay equals the scalar ``distance / speed``.
            dist / self._sound_speed_mps,
            LinkBudget.received_level_db_batch(dist),
            dist <= self._reach_m,
            dist <= self._max_range_m,
            self._epoch[idx] + self._epoch[targets],
        )

    def _build(self, idx: int) -> RowState:
        row = RowState(self._n, idx)
        row.set_candidates(self._candidates_for(idx), self.cells_epoch)
        (
            row.distance_m,
            row.delay_s,
            row.level_db,
            row.in_reach,
            row.in_decode,
            row.stamp,
        ) = self._links(idx, row.candidates)
        # The self pair is never delivered to and never queried.
        row.in_reach[row.self_pos] = False
        row.in_decode[row.self_pos] = False
        self._stats.cache_misses += row.candidate_count
        self.stored_entries += len(row.candidates)
        row.total_epoch = self.total_epoch
        return row

    def _compute(self, idx: int, row: RowState, pos: np.ndarray) -> None:
        """Recompute ``row``'s entries at positions ``pos``.

        The derived products are the caller's to drop: a point query
        recomputes only the self pair, whose masks stay ``False``, so it
        keeps them.
        """
        (
            row.distance_m[pos],
            row.delay_s[pos],
            row.level_db[pos],
            row.in_reach[pos],
            row.in_decode[pos],
            row.stamp[pos],
        ) = self._links(idx, row.candidates[pos])
        row.in_reach[row.self_pos] = False
        row.in_decode[row.self_pos] = False

    def _regather(self, idx: int, row: RowState) -> None:
        """Move ``row`` onto a freshly gathered candidate set.

        Retained entries keep their values and stamps at their new
        positions; entrants are marked never-computed (the refresh that
        follows computes them); departed members' entries are dropped —
        they are provably out of reach.
        """
        old = row.candidates
        cands = self._candidates_for(idx)
        if len(cands) == len(old) and np.array_equal(cands, old):
            row.cands_epoch = self.cells_epoch
            return
        at = np.searchsorted(old, cands)
        at[at == len(old)] = 0
        kept = old[at] == cands
        src = at[kept]
        k = len(cands)
        stamp = np.full(k, _NEVER, dtype=np.int64)
        stamp[kept] = row.stamp[src]
        row.stamp = stamp
        for name in ("distance_m", "delay_s", "level_db"):
            values = np.empty(k, dtype=np.float64)
            values[kept] = getattr(row, name)[src]
            setattr(row, name, values)
        for name in ("in_reach", "in_decode"):
            mask = np.zeros(k, dtype=bool)
            mask[kept] = getattr(row, name)[src]
            setattr(row, name, mask)
        row.set_candidates(cands, self.cells_epoch)
        row.drop_products()
        self.stored_entries += k - len(old)

    def _refresh(self, idx: int, row: RowState) -> None:
        n = self._n
        stats = self._stats
        if row.cands_epoch != self.cells_epoch:
            self._regather(idx, row)
        stale = row.stamp != self._epoch[idx] + self._epoch[row.candidates]
        stale[row.self_pos] = False
        dirty = np.flatnonzero(stale)
        if dirty.size:
            self._compute(idx, row, dirty)
            row.drop_products()
            stats.rows_refreshed += 1
            stats.cache_misses += int(dirty.size)
            stats.cache_hits += n - 1 - int(dirty.size)
        else:
            stats.cache_hits += n - 1
        row.total_epoch = self.total_epoch

    def ensure_pair(self, row: RowState, rx_idx: int) -> Link:
        """Serve one pair for a point query, recomputing on demand.

        Whole-row freshness (:meth:`row`) keeps every candidate entry but
        the self pair fresh, so a stale candidate entry is the self pair:
        it is recomputed in place, its masks stay ``False`` and the row's
        derived products survive.  A non-candidate pair — provably out of
        reach — gets a one-element pass through the same expressions and
        nothing is stored.  Only rows fresh from :meth:`row` reach here.
        """
        tx_idx = row.idx
        pos = row.position(rx_idx)
        if pos < 0:
            self._stats.cache_misses += 1
            dist, delay, level, in_reach, in_decode, _ = self._links(
                tx_idx, np.array([rx_idx], dtype=np.intp)
            )
            return (
                float(dist[0]),
                float(delay[0]),
                float(level[0]),
                bool(in_reach[0]),
                bool(in_decode[0]),
            )
        if row.stamp[pos] != self._epoch[tx_idx] + self._epoch[rx_idx]:
            self._compute(tx_idx, row, np.array([pos], dtype=np.intp))
            self._stats.cache_misses += 1
        return row.link_at(pos)

    # ------------------------------------------------------------------
    # Derived per-row products
    # ------------------------------------------------------------------
    def deliveries(self, row: RowState) -> List[Callable]:
        """Broadcast fan-out of a fresh row (built once per refresh).

        Returns the in-reach receivers' receive callbacks in registration
        order — exactly the full scan's targets and order — and caches
        them on the row with the in-reach delays and levels as float64
        vectors (:attr:`RowState.delivery_delays`,
        :attr:`RowState.delivery_levels`).  A receiver whose level the
        ``undecodable`` classifier rules out gets its ``begin_interferer``,
        every other one its ``begin_arrival``: references to the methods
        bound once at :meth:`add_node`, so the products hold no
        per-entry Python object.
        """
        built = row.delivery_callbacks
        if built is not None:
            return built
        pos = np.flatnonzero(row.in_reach)
        levels = row.level_db[pos]
        receivers = self._receivers
        built = [
            receivers[j][lost]
            for j, lost in zip(row.candidates[pos].tolist(), self._undecodable(levels))
        ]
        row.delivery_callbacks = built
        row.delivery_delays = row.delay_s[pos]
        row.delivery_levels = levels
        row.skips = row.n - 1 - len(built)
        return built

    def decode_ids(self, row: RowState) -> Tuple[int, ...]:
        """Ids within hard decode range, in registration order."""
        ids = row.decode_ids
        if ids is None:
            members_ids = self._ids
            ids = tuple(
                members_ids[j] for j in row.candidates[row.in_decode].tolist()
            )
            row.decode_ids = ids
        return ids

    def index_of(self, node_id: int) -> int:
        return self._index[node_id]

    def link_state_bytes(self) -> int:
        """Bytes held by the cached rows' arrays, candidate indices and
        fan-out products included (8 bytes per callback reference)."""
        return sum(
            row.candidates.nbytes
            + row.stamp.nbytes
            + row.distance_m.nbytes
            + row.delay_s.nbytes
            + row.level_db.nbytes
            + row.in_reach.nbytes
            + row.in_decode.nbytes
            + row.product_bytes()
            for row in self._rows.values()
        )
