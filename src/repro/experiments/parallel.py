"""Parallel sweep execution engine.

A figure sweep is a grid of (x, protocol, seed) cells, each an independent
deterministic simulation — exactly the embarrassingly-parallel shape a
process pool wants.  :func:`expand_cells` turns a
:class:`~repro.experiments.engine.SweepSpec` into picklable
:class:`SweepCell` work items **in the parent** (so the spec's closures
never cross a process boundary).  :meth:`ParallelSweepRunner.run_cells`
fans a list of cells over one spawn-safe worker pool and returns their
results in cell order — ``workers=4`` is bit-identical to ``workers=1``
because every cell derives all randomness from its own config seed (see
:mod:`repro.des.rng`).  It is the only code that runs sweep cells:
:func:`~repro.experiments.engine.run_plans` hands it the unique cells of
every plan of an invocation, at any ``workers``, ``1`` included.

Every uncached cell follows one failure rule, wherever it runs:

* **Per-cell timeout** — each cell's first attempt, in-process or pooled,
  arms the DES kernel's cooperative wall-clock deadline
  (:meth:`Simulator.set_wall_deadline`) at ``cell_timeout_s``, so a
  runaway cell unwinds with :class:`WallClockExceeded` instead of
  wedging its worker.  A parent-side guard window catches pool workers
  hung outside the event loop.
* **Retried or final** — a cell that timed out or lost its executor
  (``BrokenProcessPool``, or the hung-pool guard fired) says nothing
  about the cell itself, so it is re-run in the parent after the first
  pass: at most :data:`MAX_SERIAL_ATTEMPTS` tries, each under twice
  ``cell_timeout_s``.  Any other exception is a pure function of the
  cell's config and the source, so it becomes a :class:`CellFailure` on
  first sight.  This is the job store's rule (``fail()`` is final, a
  lost lease is retried under a budget) applied per cell.
* **The cell is the unit of recovery** — a retried cell reruns from zero
  in a fresh :class:`Scenario`; nothing of an aborted attempt survives.
  Cells are short and seeded, so a rerun costs at most one cell and
  reproduces the uninterrupted result bit for bit.

Results can be memoized through :class:`~repro.experiments.cache.ResultCache`;
cache lookups happen in the parent before any work is dispatched, so a
warm-cache rerun performs zero scenario executions, and a finished cell
is stored as soon as it completes, so an interrupted sweep resumes from
its finished cells.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..des.errors import WallClockExceeded
from .cache import ResultCache, cell_key, code_version, resolve_cache
from .config import ScenarioConfig
from .scenario import Scenario, ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .engine import SweepSpec

Progress = Optional[Callable[[str], None]]

#: ``multiprocessing`` start method for the pool.  ``spawn`` is safe
#: everywhere and matches what macOS/Windows force; tests that install
#: module-level fakes switch it to ``fork`` so children see them.
MP_CONTEXT = "spawn"

#: Retry cap per cell: a cell that keeps timing out (or losing its
#: executor) is recorded in ``failures`` instead of retrying forever.
MAX_SERIAL_ATTEMPTS = 3

#: Attempt endings that say nothing about the cell itself, so the cell
#: is retried, with the note logged when it is requeued.
_RETRYABLE = {
    WallClockExceeded: "timed out",
    BrokenProcessPool: "lost to a dead worker",
}

#: Floor, in seconds, of the parent-side hung-pool guard window, which
#: is ``max(2 * cell_timeout_s, POOL_GUARD_S)`` (no guard without a
#: cell timeout).
POOL_GUARD_S = 30.0


@dataclass(frozen=True)
class CellFailure:
    """A cell that raised, or that still timed out after its retries.

    The sweep keeps going: the failed cell's slot stays ``None`` in the
    ordered result list and its grid entry stays an empty list, so
    aggregation sees "no samples" rather than an exception.
    """

    cell: "SweepCell"
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved grid cell: a picklable, self-contained work item.

    ``config`` already has the (x, protocol, seed) overrides applied, and
    ``batch`` the evaluated batch parameters, so a worker needs nothing
    from the sweep spec (whose ``configure`` callable may be an
    unpicklable closure).  ``serves`` lists the ``(figure_id, x)`` points
    of every plan the cell's result feeds, when several do.
    """

    index: int
    x: float
    protocol: str
    seed: int
    config: ScenarioConfig
    batch: Optional[Tuple[int, float]] = None
    serves: Tuple[Tuple[str, float], ...] = ()

    @property
    def label(self) -> str:
        """``protocol x=.. seed=..``, naming each plan's x for a shared cell."""
        if len(self.serves) < 2:
            return f"{self.protocol} x={self.x} seed={self.seed}"
        axes = ", ".join(f"{figure_id} x={x}" for figure_id, x in self.serves)
        return f"{self.protocol} {axes} seed={self.seed}"


@dataclass
class SweepStats:
    """What one or more sweep runs did: failures, retries, cache."""

    #: Cells that raised, or that ran out of retries.
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells whose first attempt timed out or lost its executor, re-run
    #: in the parent.
    requeued: List[SweepCell] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0

    def merge(self, other: "SweepStats") -> None:
        """Fold another record into this one: lists extend, counts add."""
        for f in fields(self):
            mine = getattr(self, f.name)
            if isinstance(mine, list):
                mine.extend(getattr(other, f.name))
            else:
                setattr(self, f.name, mine + getattr(other, f.name))

    def cache_line(self) -> str:
        """One-line cache traffic summary for logs."""
        return (
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es), "
            f"{self.cache_stores} store(s)"
        )


def expand_cells(
    spec: "SweepSpec",
    base: ScenarioConfig,
    protocols: Sequence[str],
    seeds: Sequence[int],
) -> List[SweepCell]:
    """Flatten a sweep grid into work items, in serial-loop order."""
    cells: List[SweepCell] = []
    for x in spec.x_values:
        for protocol in protocols:
            for seed in seeds:
                config = spec.configure(base, x, protocol, seed)
                batch: Optional[Tuple[int, float]] = None
                if spec.batch is not None:
                    n_packets, max_time_s = spec.batch(x, config)
                    batch = (int(n_packets), float(max_time_s))
                cells.append(
                    SweepCell(len(cells), x, protocol, seed, config, batch)
                )
    return cells


def execute_cell(cell: SweepCell, wall_budget_s: Optional[float] = None) -> ScenarioResult:
    """Run one cell to completion (steady-state or batch-drain) from zero."""
    scenario = Scenario(cell.config)
    if wall_budget_s is not None:
        scenario.sim.set_wall_deadline(wall_budget_s)
    if cell.batch is not None:
        n_packets, max_time_s = cell.batch
        return scenario.run_batch(n_packets, max_time_s)
    return scenario.run_steady_state()


def _pool_worker(
    cell: SweepCell, wall_budget_s: Optional[float]
) -> Tuple[int, float, ScenarioResult]:
    """Pool entry point: returns (cell index, wall-clock seconds, result)."""
    started = time.perf_counter()
    result = execute_cell(cell, wall_budget_s)
    return cell.index, time.perf_counter() - started, result


class ParallelSweepRunner:
    """Run sweep cells in one process pool, with caching and recovery.

    Args:
        workers: Pool size; ``None``/``0`` uses the CPU count, ``1`` runs
            in-process (still honouring the cache).
        cache: ``None``/``False`` (off), ``True`` (default location), a
            path, or a :class:`ResultCache`.
        cell_timeout_s: Cooperative wall-clock budget for every cell's
            first attempt, in-process or pooled.  A cell that exceeds it
            is requeued and re-run from zero in the parent.
        progress: Receives a line per cell with its wall-clock cost (or
            ``cached``), plus requeue and failure notices.

    Where a cell runs is a scheduling choice (in-process for
    ``workers <= 1`` or a single pending cell, pooled otherwise); its
    outcome follows one rule either way.  A timeout or a lost executor is
    retried up to :data:`MAX_SERIAL_ATTEMPTS` times at
    ``2 * cell_timeout_s`` of wall clock each (unbounded without a cell
    timeout); any other exception is a final :class:`CellFailure`.  Each
    :meth:`run_cells` call records what it did in :attr:`stats`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: object = None,
        cell_timeout_s: Optional[float] = None,
        progress: Progress = None,
    ) -> None:
        self.workers = workers if workers else (os.cpu_count() or 1)
        self.cache: Optional[ResultCache] = resolve_cache(cache)  # type: ignore[arg-type]
        self.cell_timeout_s = cell_timeout_s
        self.progress = progress
        #: The last :meth:`run_cells` call's record.  A failed cell is
        #: lost (empty grid entry) instead of aborting the whole sweep.
        self.stats = SweepStats()

    # ------------------------------------------------------------------
    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run_cells(self, cells: Sequence[SweepCell]) -> List[Optional[ScenarioResult]]:
        """Execute cells (cache, pool, retries) and return them in order.

        Each cell's ``index`` is its position in ``cells``.  Slots of
        cells that failed (recorded in ``stats.failures``) are ``None``.
        """
        stats = self.stats = SweepStats()
        results: List[Optional[ScenarioResult]] = [None] * len(cells)
        keys: Dict[int, str] = {}
        pending: List[SweepCell] = []
        if self.cache is not None:
            version = code_version()
            for cell in cells:
                keys[cell.index] = cell_key(cell.config, cell.batch, version)
        for cell in cells:
            if self.cache is not None:
                hit = self.cache.get(keys[cell.index])
                if hit is not None:
                    stats.cache_hits += 1
                    results[cell.index] = hit
                    self._emit(f"{cell.label} cached")
                    continue
                stats.cache_misses += 1
            pending.append(cell)

        if pending:
            if self.workers <= 1 or len(pending) == 1:
                retry = [
                    cell
                    for cell in pending
                    if self._attempt(cell, self.cell_timeout_s, results, keys)
                ]
            else:
                retry = self._run_pool(pending, results, keys)
            stats.requeued = sorted(retry, key=lambda c: c.index)
            self._retry(stats.requeued, results, keys)

        if stats.failures:
            labels = ", ".join(f.cell.label for f in stats.failures)
            self._emit(
                f"sweep finished with {len(stats.failures)} failed cell(s): {labels}"
            )
        return results

    # ------------------------------------------------------------------
    def _finish(
        self,
        cell: SweepCell,
        result: ScenarioResult,
        elapsed_s: float,
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
    ) -> None:
        results[cell.index] = result
        if self.cache is not None:
            self.cache.put(keys[cell.index], result)
            self.stats.cache_stores += 1
        self._emit(f"{cell.label} done in {elapsed_s:.2f}s")

    def _failed_attempt(self, cell: SweepCell, exc: Exception, final: bool) -> bool:
        """Classify a failed attempt; True means the cell runs again.

        Called inside the ``except`` block, so the traceback is at hand.
        A timeout or a lost executor is retried unless ``final``; any other
        exception is deterministic, so rerunning could only repeat it.
        """
        error = f"{type(exc).__name__}: {exc}"
        note = next((n for t, n in _RETRYABLE.items() if isinstance(exc, t)), None)
        if note is not None and not final:
            self._emit(f"{cell.label} {note}, requeueing")
            return True
        self.stats.failures.append(CellFailure(cell, error, traceback.format_exc()))
        self._emit(f"{cell.label} failed permanently ({error}); continuing")
        return False

    def _attempt(
        self,
        cell: SweepCell,
        budget_s: Optional[float],
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
        final: bool = False,
    ) -> bool:
        """Run one in-process attempt; True means the cell runs again.

        Only the cell's own execution is classified: an exception from
        ``progress`` or the cache propagates out of the runner.
        """
        started = time.perf_counter()
        try:
            result = execute_cell(cell, budget_s)
        except Exception as exc:
            return self._failed_attempt(cell, exc, final)
        self._finish(cell, result, time.perf_counter() - started, results, keys)
        return False

    def _retry(
        self,
        cells: Sequence[SweepCell],
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
    ) -> None:
        """Re-run requeued cells in the parent, in index order, bounded.

        Each retry gets ``2 * cell_timeout_s`` of wall clock and each cell
        at most :data:`MAX_SERIAL_ATTEMPTS` retries, so a truly wedged cell
        becomes a :class:`CellFailure` instead of blocking the sweep
        forever.  Every retry starts the cell from zero.
        """
        budget_s = None if self.cell_timeout_s is None else 2 * self.cell_timeout_s
        for cell in cells:
            for attempt in range(1, MAX_SERIAL_ATTEMPTS + 1):
                final = attempt == MAX_SERIAL_ATTEMPTS
                if not self._attempt(cell, budget_s, results, keys, final):
                    break

    def _run_pool(
        self,
        cells: Sequence[SweepCell],
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
    ) -> List[SweepCell]:
        """Pooled first attempts; returns the cells to retry."""
        context = multiprocessing.get_context(MP_CONTEXT)
        n_workers = min(self.workers, len(cells))
        retry: List[SweepCell] = []
        # A worker stuck *outside* the event loop never hits the
        # cooperative deadline, so the parent also bounds how long it will
        # wait between completions before declaring the pool hung.
        guard_s = (
            None
            if self.cell_timeout_s is None
            else max(2 * self.cell_timeout_s, POOL_GUARD_S)
        )
        pool = ProcessPoolExecutor(n_workers, context)
        hung = False
        try:
            future_to_cell = {
                pool.submit(_pool_worker, cell, self.cell_timeout_s): cell
                for cell in cells
            }
            waiting = set(future_to_cell)
            while waiting:
                done, waiting = wait(
                    waiting, timeout=guard_s, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Guard window expired with no completions: the pool is
                    # hung.  Abandon it; everything unfinished is retried.
                    retry.extend(future_to_cell[f] for f in waiting)
                    hung = True
                    self._emit(
                        f"pool hung ({len(waiting)} cells unfinished), "
                        "requeueing serially"
                    )
                    break
                for future in done:
                    cell = future_to_cell[future]
                    try:
                        _, elapsed_s, result = future.result()
                    except Exception as exc:
                        if self._failed_attempt(cell, exc, final=False):
                            retry.append(cell)
                    else:
                        self._finish(cell, result, elapsed_s, results, keys)
        finally:
            if hung:
                # A wedged worker would otherwise be joined at interpreter
                # exit; there is no public kill API on the executor, and
                # the process table must be read *before* shutdown clears
                # it.
                processes = list((getattr(pool, "_processes", None) or {}).values())
                for process in processes:
                    process.terminate()
            # cancel_futures keeps a hung/broken pool from blocking exit;
            # Python 3.9+ supports the keyword.
            pool.shutdown(wait=False, cancel_futures=True)
        return retry
