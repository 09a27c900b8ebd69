"""Performance instrumentation for the simulation hot loop.

The kernel and channel already count everything interesting — events
processed, wall time inside :meth:`Simulator.run`, broadcasts, deliveries,
link-state cache hits/misses.  This module snapshots those counters into a
:class:`PerfReport` per run and merges reports across sweep cells with
:class:`PerfAccumulator`, so the CLI's ``--profile`` flag and the benchmark
suite can print one coherent summary instead of poking subsystems.

None of this affects simulation results: reports are read-only snapshots
taken after a run finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .des.simulator import Simulator
    from .phy.channel import ChannelStats


@dataclass(frozen=True)
class PerfReport:
    """Counter snapshot of one finished simulation run.

    Attributes:
        sim_time_s: Simulated seconds covered by the run.
        wall_time_s: Wall-clock seconds spent inside the event loop.
        events: DES events processed.
        broadcasts: Channel broadcasts (one per transmitted frame).
        deliveries: Arrivals fanned out to in-reach receivers.
        out_of_range_skips: Receivers skipped as unreachable.
        cache_hits: Link-state cache lookups served from cache.
        cache_misses: Link-state cache lookups that recomputed geometry.
        vector_batches: Vectorized kernel passes (row builds + refreshes).
        rows_refreshed: Stale link-state rows partially recomputed (0 on a
            fully static run — every row is built once and stays warm).
        grid_candidates: Summed spatial-hash candidate-set sizes across
            broadcasts (:attr:`mean_grid_candidates` is the mean scan
            width, versus ``n - 1`` for a full scan).
        bulk_pushes: Batched fan-out calls into the DES core's
            ``push_bulk`` (one per broadcast that reached anyone).
        bulk_events: Arrival events scheduled through those batches.
        grid_cells: Occupied spatial-hash cells at capture time (gauge;
            accumulated via max, not sum).
    """

    sim_time_s: float
    wall_time_s: float
    events: int
    broadcasts: int
    deliveries: int
    out_of_range_skips: int
    cache_hits: int
    cache_misses: int
    vector_batches: int = 0
    rows_refreshed: int = 0
    grid_candidates: int = 0
    grid_cells: int = 0
    bulk_pushes: int = 0
    bulk_events: int = 0

    @property
    def events_per_second(self) -> float:
        """Kernel throughput: events per wall-clock second."""
        return self.events / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def broadcasts_per_second(self) -> float:
        """Channel throughput: broadcasts per wall-clock second."""
        return self.broadcasts / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of link-state lookups served from cache (0 if none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def mean_grid_candidates(self) -> float:
        """Mean spatial-grid candidates scanned per broadcast (0 if none)."""
        return self.grid_candidates / self.broadcasts if self.broadcasts else 0.0

    @property
    def speedup_factor(self) -> float:
        """Simulated seconds per wall-clock second (real-time ratio)."""
        return self.sim_time_s / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @classmethod
    def capture(
        cls,
        sim: "Simulator",
        channel_stats: "ChannelStats",
        sim_time_s: float,
    ) -> "PerfReport":
        """Snapshot kernel + channel counters after a run.

        Every field not set here is the :class:`ChannelStats` counter of
        the same name.
        """
        own = {
            "sim_time_s": sim_time_s,
            "wall_time_s": sim.wall_time_s,
            "events": sim.events_processed,
        }
        return cls(
            **{
                f.name: own[f.name] if f.name in own else getattr(channel_stats, f.name)
                for f in fields(cls)
            }
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-friendly form (benchmark exports, CI artifacts)."""
        data: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        data["events_per_second"] = self.events_per_second
        data["broadcasts_per_second"] = self.broadcasts_per_second
        data["cache_hit_rate"] = self.cache_hit_rate
        data["speedup_factor"] = self.speedup_factor
        return data

    def summary_lines(self) -> List[str]:
        """Human-readable summary (printed by ``--profile``)."""
        return [
            f"simulated {self.sim_time_s:.1f} s in {self.wall_time_s:.3f} s wall "
            f"({self.speedup_factor:,.0f}x real time)",
            f"events: {self.events:,} ({self.events_per_second:,.0f}/s)",
            f"broadcasts: {self.broadcasts:,} ({self.broadcasts_per_second:,.0f}/s), "
            f"deliveries: {self.deliveries:,}, "
            f"out-of-range skips: {self.out_of_range_skips:,}",
            f"link cache: {self.cache_hits:,} hits / {self.cache_misses:,} misses "
            f"({self.cache_hit_rate:.1%} hit rate)",
            f"vector kernel: {self.vector_batches:,} batches, "
            f"{self.rows_refreshed:,} rows refreshed",
            f"spatial grid: {self.grid_cells:,} cells, "
            f"{self.mean_grid_candidates:,.1f} mean candidates/broadcast",
            f"bulk schedule: {self.bulk_pushes:,} pushes, "
            f"{self.bulk_events:,} events "
            f"({self.bulk_events / self.bulk_pushes if self.bulk_pushes else 0.0:,.1f} "
            f"per push)",
        ]


#: Fields merged by peak rather than sum: gauges, not flows.
_GAUGES = frozenset({"grid_cells"})


@dataclass
class PerfAccumulator:
    """Merge :class:`PerfReport` snapshots across sweep cells.

    Wall times and counters add (gauges keep their peak); rates are
    recomputed from the totals, so the merged report reads like one long
    run.
    """

    runs: int = 0
    _totals: Dict[str, float] = field(default_factory=dict)

    def add(self, report: PerfReport) -> None:
        self.runs += 1
        for f in fields(report):
            value = getattr(report, f.name)
            total = self._totals.get(f.name, 0)
            self._totals[f.name] = (
                max(total, value) if f.name in _GAUGES else total + value
            )

    def merged(self) -> PerfReport:
        """Totals as a single report (zeros if nothing was added)."""
        return PerfReport(
            **{f.name: self._totals.get(f.name, 0) for f in fields(PerfReport)}
        )

    def summary_lines(self) -> List[str]:
        return [f"runs: {self.runs}"] + self.merged().summary_lines()

    def reset(self) -> None:
        self.runs = 0
        self._totals.clear()


#: Process-global accumulator: every finished scenario adds its report here
#: (a few dict updates per run).  The CLI's ``--profile`` flag forces serial
#: in-process execution, drains this, and prints the merged summary.
GLOBAL_PERF = PerfAccumulator()
