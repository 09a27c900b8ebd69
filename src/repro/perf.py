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

from dataclasses import dataclass, field
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
            broadcasts (divide by ``broadcasts`` for the mean scan width,
            versus ``n - 1`` for a full scan).
        bulk_pushes: Batched fan-out calls into the DES core's
            ``push_bulk`` (one per broadcast that reached anyone).
        bulk_events: Arrival events scheduled through those batches.
        grid_cells: Occupied spatial-hash cells at capture time (gauge;
            accumulated via max, not sum).
        checkpoints_taken: Cooperative checkpoints taken during the run
            (0 unless ``checkpoint_every_s`` was armed).
        resumes: How many times this run was restored from a checkpoint
            (0 for an uninterrupted run).
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
    checkpoints_taken: int = 0
    resumes: int = 0

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
    def speedup_factor(self) -> float:
        """Simulated seconds per wall-clock second (real-time ratio)."""
        return self.sim_time_s / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @classmethod
    def capture(
        cls,
        sim: "Simulator",
        channel_stats: "ChannelStats",
        sim_time_s: float,
        checkpoints_taken: int = 0,
        resumes: int = 0,
    ) -> "PerfReport":
        """Snapshot kernel + channel counters after a run."""
        return cls(
            checkpoints_taken=checkpoints_taken,
            resumes=resumes,
            sim_time_s=sim_time_s,
            wall_time_s=sim.wall_time_s,
            events=sim.events_processed,
            broadcasts=channel_stats.broadcasts,
            deliveries=channel_stats.deliveries,
            out_of_range_skips=channel_stats.out_of_range_skips,
            cache_hits=channel_stats.cache_hits,
            cache_misses=channel_stats.cache_misses,
            vector_batches=channel_stats.vector_batches,
            rows_refreshed=channel_stats.rows_refreshed,
            grid_candidates=channel_stats.grid_candidates,
            grid_cells=channel_stats.grid_cells,
            bulk_pushes=channel_stats.bulk_pushes,
            bulk_events=channel_stats.bulk_events,
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-friendly form (benchmark exports, CI artifacts)."""
        return {
            "sim_time_s": self.sim_time_s,
            "wall_time_s": self.wall_time_s,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "broadcasts": self.broadcasts,
            "broadcasts_per_second": self.broadcasts_per_second,
            "deliveries": self.deliveries,
            "out_of_range_skips": self.out_of_range_skips,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "vector_batches": self.vector_batches,
            "rows_refreshed": self.rows_refreshed,
            "grid_candidates": self.grid_candidates,
            "bulk_pushes": self.bulk_pushes,
            "bulk_events": self.bulk_events,
            "grid_cells": self.grid_cells,
            "checkpoints_taken": self.checkpoints_taken,
            "resumes": self.resumes,
            "speedup_factor": self.speedup_factor,
        }

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
            f"{self.grid_candidates / self.broadcasts if self.broadcasts else 0.0:,.1f} "
            f"mean candidates/broadcast",
            f"bulk schedule: {self.bulk_pushes:,} pushes, "
            f"{self.bulk_events:,} events "
            f"({self.bulk_events / self.bulk_pushes if self.bulk_pushes else 0.0:,.1f} "
            f"per push)",
            f"fault tolerance: {self.checkpoints_taken:,} checkpoints taken, "
            f"{self.resumes:,} resumes",
        ]


@dataclass
class PerfAccumulator:
    """Merge :class:`PerfReport` snapshots across sweep cells.

    Wall times and counters add; rates are recomputed from the totals, so
    the merged report reads like one long run.
    """

    runs: int = 0
    _totals: Dict[str, float] = field(default_factory=dict)

    def add(self, report: PerfReport) -> None:
        self.runs += 1
        for key in (
            "sim_time_s",
            "wall_time_s",
            "events",
            "broadcasts",
            "deliveries",
            "out_of_range_skips",
            "cache_hits",
            "cache_misses",
            "vector_batches",
            "rows_refreshed",
            "grid_candidates",
            "bulk_pushes",
            "bulk_events",
            "checkpoints_taken",
            "resumes",
        ):
            self._totals[key] = self._totals.get(key, 0) + getattr(report, key)
        # Occupied-cell count is a gauge, not a flow: keep the peak.
        self._totals["grid_cells"] = max(
            self._totals.get("grid_cells", 0), report.grid_cells
        )

    def merged(self) -> PerfReport:
        """Totals as a single report (zeros if nothing was added)."""
        totals = self._totals
        return PerfReport(
            sim_time_s=totals.get("sim_time_s", 0.0),
            wall_time_s=totals.get("wall_time_s", 0.0),
            events=int(totals.get("events", 0)),
            broadcasts=int(totals.get("broadcasts", 0)),
            deliveries=int(totals.get("deliveries", 0)),
            out_of_range_skips=int(totals.get("out_of_range_skips", 0)),
            cache_hits=int(totals.get("cache_hits", 0)),
            cache_misses=int(totals.get("cache_misses", 0)),
            vector_batches=int(totals.get("vector_batches", 0)),
            rows_refreshed=int(totals.get("rows_refreshed", 0)),
            grid_candidates=int(totals.get("grid_candidates", 0)),
            grid_cells=int(totals.get("grid_cells", 0)),
            bulk_pushes=int(totals.get("bulk_pushes", 0)),
            bulk_events=int(totals.get("bulk_events", 0)),
            checkpoints_taken=int(totals.get("checkpoints_taken", 0)),
            resumes=int(totals.get("resumes", 0)),
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
