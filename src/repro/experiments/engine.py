"""Pure sweep engine: specs and requests in, results out.

This module is the computational core of :mod:`repro.experiments`, split
out so every front-end — the CLI, the benchmark suite, and the
:mod:`repro.service` REST API — is a thin caller over the same functions.
The engine keeps a strict purity contract:

* **importing it performs no filesystem access, prints nothing, and
  never touches ``sys.argv``** (verified by a test);
* **running it writes nothing** unless the caller explicitly passes a
  cache — results come back as values, never as files.

Two layers, lowest first:

``run_plans``
    The one executor: a :class:`FigurePlan` bundles a sweep (a
    :class:`SweepSpec`: x axis plus config closure) with its base config,
    protocol set, seeds, the aggregation that turns the raw grid into a
    :class:`FigureData`, and an optional post-run summary (a figure's
    paper-claim verdicts, the chaos audit counters).  :func:`run_plans`
    takes every plan of one invocation, expands them into
    (x, protocol, seed) cells, runs each unique cell once through
    :class:`~repro.experiments.parallel.ParallelSweepRunner` (in-process
    for ``workers=1``, one spawn-safe process pool otherwise), optionally
    memoized through the content-addressed :mod:`~repro.experiments.cache`,
    and returns a :class:`PlanOutcome` per plan.  Plans are
    built from the rows of one target table
    (:class:`~repro.experiments.figures.PlanRow`: the figures, the
    ablations and the chaos sweep), and :func:`targets` is the one
    registry of those rows — the CLI's choices and groups and the
    service's ``/targets`` derive from it.

``run_request``
    Job executor: a :class:`SweepRequest` is a *serializable* description
    of a target run (target id, quick flag, seeds, config overrides) —
    the unit of work the job service queues.  :func:`request_key` derives
    a content-addressed job key from the request's cell digests (reusing
    :func:`~repro.experiments.cache.cell_key`), so identical submissions
    dedupe to one run and any source edit re-keys every job.
    :func:`run_request` runs the plan through :func:`run_plans` and packs
    the outcome into a :class:`SweepResult` whose
    :meth:`~SweepResult.to_dict` is plain JSON.

Observability is ambient rather than threaded through every signature:
wrap engine calls in :func:`observe_sweeps` to sum every run's
:class:`~repro.experiments.parallel.SweepStats` (cell failures, requeued
cells, cache traffic) without changing any sweep call's
signature.
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .cache import cell_key, code_version
from .config import ScenarioConfig
from .parallel import ParallelSweepRunner, SweepCell, SweepStats, expand_cells
from .scenario import ScenarioResult

if TYPE_CHECKING:
    from .figures import PlanRow

#: The paper's protocol set, in its legend order.
PAPER_PROTOCOLS: Tuple[str, ...] = ("S-FAMA", "ROPA", "CS-MAC", "EW-MAC")

#: A grid cell: results of every seed for one (x, protocol) pair.
GridResults = Dict[Tuple[float, str], List[ScenarioResult]]

Progress = Optional[Callable[[str], None]]


class EngineError(ValueError):
    """A request the engine cannot run (unknown target, bad field, ...)."""


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    return sum(values) / len(values) if values else 0.0


@dataclass
class SweepSpec:
    """One sweep axis: x values and how each x customizes the config.

    Attributes:
        x_values: Sweep axis values (offered loads, node counts, ...).
        configure: Maps (base_config, x, protocol, seed) to the scenario
            config for that grid cell.
        batch: If set, maps x to (n_packets, max_time_s) and scenarios run
            in batch-drain mode instead of steady state (Fig. 8).
    """

    x_values: Sequence[float]
    configure: Callable[[ScenarioConfig, float, str, int], ScenarioConfig]
    batch: Optional[Callable[[float, ScenarioConfig], Tuple[int, float]]] = None


@dataclass
class FigureData:
    """One regenerated figure: x axis plus a series per protocol."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: List[float]
    series: Dict[str, List[float]]
    notes: str = ""

    def value(self, protocol: str, x: float) -> float:
        """Series value for a protocol at an x-axis point."""
        return self.series[protocol][self.x_values.index(x)]

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (the service's wire format)."""
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Observability: ambient collection of failures and cache traffic
# ----------------------------------------------------------------------
_STATS: ContextVar[Optional[SweepStats]] = ContextVar(
    "repro_sweep_stats", default=None
)


@contextmanager
def observe_sweeps() -> Iterator[SweepStats]:
    """Sum the :class:`SweepStats` of every sweep run inside the block.

    Front-ends (CLI exit codes, the service's failed-job detection, CI
    cache accounting) use this instead of threading reporting hooks
    through every sweep call's signature.  Blocks nest: an inner
    block's totals fold into the enclosing block's when it exits, so
    :func:`run_request` (which observes its own sweep) stays visible to
    a caller that is also observing.
    """
    stats = SweepStats()
    parent = _STATS.get()
    token = _STATS.set(stats)
    try:
        yield stats
    finally:
        _STATS.reset(token)
        if parent is not None:
            parent.merge(stats)


# ----------------------------------------------------------------------
# Aggregation: a plan's grid into its figure's series
# ----------------------------------------------------------------------
def aggregate(
    results: GridResults,
    x_values: Sequence[float],
    protocols: Sequence[str],
    metric: Callable[[ScenarioResult], float],
) -> Dict[str, List[float]]:
    """Seed-average a metric into per-protocol series over the x axis."""
    series: Dict[str, List[float]] = {}
    for protocol in protocols:
        series[protocol] = [
            mean([metric(r) for r in results[(x, protocol)]]) for x in x_values
        ]
    return series


def aggregate_relative(
    results: GridResults,
    x_values: Sequence[float],
    protocols: Sequence[str],
    metric: Callable[[ScenarioResult], float],
    baseline_protocol: str = "S-FAMA",
) -> Dict[str, List[float]]:
    """Like :func:`aggregate` but normalized per-x to a baseline protocol.

    This is the one definition of the paper's relative figures (Fig. 10's
    overhead ratio, Fig. 11's efficiency index with S-FAMA at 1).

    Raises:
        ValueError: If ``baseline_protocol`` is not among ``protocols``
            (the baseline must itself have been swept to normalize to it),
            or if its seed-average at some x is not positive (the ratio
            is undefined there).
    """
    if baseline_protocol not in protocols:
        raise ValueError(
            f"baseline protocol {baseline_protocol!r} is not among the swept "
            f"protocols {list(protocols)!r}; pass baseline_protocol= one of "
            "those, or add it to the sweep"
        )
    absolute = aggregate(results, x_values, protocols, metric)
    baseline = absolute[baseline_protocol]
    for x, base in zip(x_values, baseline):
        if not base > 0:
            raise ValueError(
                f"baseline protocol {baseline_protocol!r} averages {base!r} at "
                f"x={x!r}; a ratio to it is undefined"
            )
    return {
        protocol: [value / base for value, base in zip(absolute[protocol], baseline)]
        for protocol in protocols
    }


# ----------------------------------------------------------------------
# Figure plans and the one executor
# ----------------------------------------------------------------------
@dataclass
class FigurePlan:
    """A fully-resolved figure run: sweep, inputs, and aggregation.

    Built by calling a row of the target table
    (:class:`~repro.experiments.figures.PlanRow`), which decides axes,
    base config and metric but never executes anything, so the same plan
    can be keyed (:func:`request_key`), run (:func:`run_plans`), or queued
    by the job service.
    """

    figure_id: str
    spec: SweepSpec
    base: ScenarioConfig
    protocols: Tuple[str, ...]
    seeds: Tuple[int, ...]
    #: Turns the raw grid into the figure (aggregation + labels).
    build: Callable[[GridResults], FigureData]
    #: Optional post-run summary of the grid (a figure's
    #: :class:`~repro.experiments.claims.Verdicts`, the chaos sweep's
    #: :class:`~repro.experiments.chaos.ChaosSummary`): an object whose
    #: ``lines()`` the front ends print or serialize and whose
    #: ``failure()`` names an engine failure, or is ``None``.
    summarize: Optional[Callable[[GridResults], object]] = None

    @property
    def n_cells(self) -> int:
        return len(list(self.spec.x_values)) * len(self.protocols) * len(self.seeds)


class PlanOutcome(NamedTuple):
    """What :func:`run_plans` returns for one plan."""

    #: ``plan.build(grid)``, or ``None`` when building raised ``error``.
    figure: Optional[FigureData]
    #: ``plan.summarize(grid)``, or ``None`` for a plan without one.
    summary: object
    #: The ``ValueError`` that building the figure or its summary raised
    #: (a relative figure over a zero baseline), or ``None``.
    error: Optional[Exception] = None


def run_plans(
    plans: Sequence[FigurePlan],
    progress: Progress = None,
    workers: Optional[int] = 1,
    cache: object = None,
    cell_timeout_s: Optional[float] = None,
) -> List[PlanOutcome]:
    """Run every plan's cells once, then build each plan from its own cells.

    The one plan executor: the CLI, :func:`run_request` (the job
    service) and the benchmarks all run plans through it.  The plans'
    cells are deduped by ``(config, batch)``, the partition
    :func:`~repro.experiments.cache.cell_key` gives, so a cell two plans
    share (every Fig. 11 cell is a Fig. 6 cell) is looked up, simulated
    and retried once.  The unique cells go through one
    :meth:`~repro.experiments.parallel.ParallelSweepRunner.run_cells`
    call, so one invocation has one pool and one failure model: a cell
    that raises becomes a
    :class:`~repro.experiments.parallel.CellFailure` on first sight
    (collected by :func:`observe_sweeps`), a cell that times out is
    retried, and the other cells still run.  A cell that several plans
    share is labelled with every ``(figure_id, x)`` it serves, in progress
    lines and failures alike.  Each plan's grid then holds
    its own cells in serial order (plans that share a cell share its
    result object, which builds and summaries only read), and a failed
    cell leaves its (x, protocol) bucket short (empty if every seed
    failed).  A plan whose figure or summary cannot be built gets the
    error in its outcome; the other plans' outcomes are unaffected.

    Args:
        workers: ``1`` (default) runs the cells in this process, one after
            another; ``N > 1`` (or ``None``/``0`` for the CPU count) fans
            them out over a spawn-safe process pool.  Cell order, seed
            pairing, and results are identical either way.
        cache: ``None`` (off), ``True`` (default on-disk location), a
            directory path, or a
            :class:`~repro.experiments.cache.ResultCache` — previously
            computed cells are reused instead of re-simulated.
        cell_timeout_s: Optional wall-clock budget for each cell's first
            attempt, at any ``workers``; a cell that exceeds it is re-run
            from zero in this process under a bounded retry budget.  The
            cell is the unit of recovery: only a finished cell is kept
            (in ``cache``), never part of one.
    """
    unique: Dict[Tuple[ScenarioConfig, Optional[Tuple[int, float]]], SweepCell] = {}
    serves: List[List[Tuple[str, float]]] = []
    plan_slots = []
    for plan in plans:
        slots = []
        for cell in expand_cells(plan.spec, plan.base, plan.protocols, plan.seeds):
            key = (cell.config, cell.batch)
            if key not in unique:
                unique[key] = dataclasses.replace(cell, index=len(unique))
                serves.append([])
            index = unique[key].index
            if (plan.figure_id, cell.x) not in serves[index]:
                serves[index].append((plan.figure_id, cell.x))
            slots.append(((cell.x, cell.protocol), index))
        plan_slots.append(slots)
    runner = ParallelSweepRunner(
        workers=workers,
        cache=cache,
        cell_timeout_s=cell_timeout_s,
        progress=progress,
    )
    cells = [
        dataclasses.replace(cell, serves=tuple(serves[cell.index]))
        for cell in unique.values()
    ]
    results = runner.run_cells(cells)
    stats = _STATS.get()
    if stats is not None:
        stats.merge(runner.stats)
    outcomes = []
    for plan, slots in zip(plans, plan_slots):
        grid: GridResults = {}
        for bucket_key, slot in slots:
            # Every (x, protocol) pair gets its bucket even when all its
            # cells failed, so aggregation can never KeyError: a lost cell
            # shows up as a missing sample, not a crashed sweep.
            bucket = grid.setdefault(bucket_key, [])
            if results[slot] is not None:
                bucket.append(results[slot])
        try:
            summary = plan.summarize(grid) if plan.summarize is not None else None
            outcomes.append(PlanOutcome(plan.build(grid), summary))
        except ValueError as exc:
            outcomes.append(PlanOutcome(None, None, exc))
    return outcomes


def apply_overrides(
    base: ScenarioConfig, overrides: Optional[Mapping[str, object]]
) -> ScenarioConfig:
    """Apply request/CLI config overrides on top of a plan's base config.

    Each value must have the type of its field's default: a bool field
    takes a bool, an int field an int that is not a bool, a float field an
    int or a float (stored as a float, so ``3`` and ``3.0`` are one cell),
    a str field a str, ``max_retries`` an int or None.  ``faults`` takes
    no override.

    Raises:
        EngineError: On an unknown field or a value the config rejects —
            a clean, named failure instead of a traceback, so front-ends
            can map it to exit code 2 / HTTP 400.
    """
    if not overrides:
        return base
    fields = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise EngineError(
            f"unknown config override field(s) {unknown}; valid fields: "
            f"{sorted(fields)}"
        )
    typed = {name: _typed_override(fields[name], value) for name, value in overrides.items()}
    try:
        return base.with_(**typed)
    except (TypeError, ValueError) as exc:
        raise EngineError(f"bad config override: {exc}") from exc


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed_override(config_field: dataclasses.Field, value: object) -> object:
    """``value`` checked against the type of the field's default."""
    name, default = config_field.name, config_field.default
    if name == "max_retries":  # None means the protocol's own default
        valid, kind = value is None or _is_int(value), "an int or None"
    elif isinstance(default, bool):
        valid, kind = isinstance(value, bool), "a bool"
    elif isinstance(default, int):
        valid, kind = _is_int(value), "an int"
    elif isinstance(default, float):
        valid, kind = _is_int(value) or isinstance(value, float), "a number"
    elif isinstance(default, str):
        valid, kind = isinstance(value, str), "a str"
    else:
        raise EngineError(f"bad config override: {name} takes no override")
    if not valid:
        raise EngineError(f"bad config override: {name} must be {kind}, got {value!r}")
    if isinstance(default, float):
        try:
            return float(value)  # type: ignore[arg-type]
        except OverflowError:
            raise EngineError(f"bad config override: {name} is out of range") from None
    return value


# ----------------------------------------------------------------------
# Serializable requests (the job service's unit of work)
# ----------------------------------------------------------------------
#: Types a request override may carry: the JSON scalars, null included
#: (``max_retries`` takes it).  :func:`apply_overrides` checks each value
#: against its field.
_SCALARS = (bool, int, float, str, type(None))


@dataclass(frozen=True)
class SweepRequest:
    """A serializable description of one target run.

    Hashable and JSON-round-trippable: the REST API accepts exactly this
    shape, and :func:`request_key` derives the job-store key from it.
    ``seeds=None`` means the target row's own seeds.  ``overrides`` are
    ScenarioConfig field overrides applied on top of the target's base
    config (sorted name/value pairs, so two requests that differ only in
    override order are the same request).
    """

    target: str
    quick: bool = False
    seeds: Optional[Tuple[int, ...]] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "overrides", tuple(sorted((str(k), v) for k, v in self.overrides))
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepRequest":
        """Validate and build a request from parsed JSON.

        Raises:
            EngineError: On any malformed field, with a message suitable
                for an HTTP 400 body.
        """
        if not isinstance(payload, Mapping):
            raise EngineError("request body must be a JSON object")
        unknown = sorted(set(payload) - {"target", "quick", "seeds", "overrides"})
        if unknown:
            raise EngineError(f"unknown request field(s): {unknown}")
        target = payload.get("target")
        if not isinstance(target, str) or not target:
            raise EngineError("request needs a string 'target' (e.g. \"fig6\")")
        quick = payload.get("quick", False)
        if not isinstance(quick, bool):
            raise EngineError("'quick' must be a boolean")
        seeds = payload.get("seeds")
        if seeds is not None and (
            not isinstance(seeds, (list, tuple))
            or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        ):
            raise EngineError("'seeds' must be a non-empty list of integers, or null")
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise EngineError("'overrides' must be an object of config fields")
        for name, value in overrides.items():
            if not isinstance(value, _SCALARS):
                raise EngineError(
                    f"override {name!r} must be a JSON scalar, got "
                    f"{type(value).__name__}"
                )
        return cls(
            target=target,
            quick=quick,
            seeds=seeds,
            overrides=tuple(overrides.items()),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "quick": self.quick,
            "seeds": None if self.seeds is None else list(self.seeds),
            "overrides": dict(self.overrides),
        }


def target_groups() -> Dict[str, Dict[str, "PlanRow"]]:
    """The one target registry: every row of the target table, by group.

    ``all`` is the paper's figures, ``ablations`` our ablations, and
    ``chaos`` the fault-injection sweep.  The CLI's target choices and
    its ``all``/``ablations`` groups, :func:`request_plan` and the
    service's ``/targets`` all derive from it.  Lazy: the rows live
    beside the modules that explain them.
    """
    from .ablations import ALL_ABLATIONS
    from .chaos import CHAOS
    from .figures import ALL_PLANS

    return {"all": ALL_PLANS, "ablations": ALL_ABLATIONS, "chaos": {"chaos": CHAOS}}


def targets() -> Dict[str, "PlanRow"]:
    """Every target row by id, across the groups of :func:`target_groups`."""
    return {
        target: row for group in target_groups().values() for target, row in group.items()
    }


def service_targets() -> Tuple[str, ...]:
    """Target ids :func:`run_request` accepts, sorted."""
    return tuple(sorted(targets()))


def request_plan(request: SweepRequest) -> FigurePlan:
    """Resolve a request into its executable plan.

    Raises:
        EngineError: Unknown target or invalid config overrides.
    """
    rows = targets()
    row = rows.get(request.target)
    if row is None:
        raise EngineError(
            f"unknown target {request.target!r}; known targets: {sorted(rows)}"
        )
    return row(
        seeds=request.seeds,
        quick=request.quick,
        overrides=dict(request.overrides) or None,
    )


def request_key(request: SweepRequest) -> str:
    """Content-addressed job key for a request.

    Reuses the result cache's per-cell digests
    (:func:`~repro.experiments.cache.cell_key`, which cover every config
    field, the batch parameters, and the source-tree digest), plus the
    target id — fig6 and fig11 sweep identical cells but aggregate them
    differently, so the target must participate.  Two identical
    submissions always map to the same key; any source edit re-keys
    every job.
    """
    plan = request_plan(request)
    cells = expand_cells(plan.spec, plan.base, plan.protocols, plan.seeds)
    version = code_version()
    digest = hashlib.sha256()
    digest.update(b"sweep-request\0")
    digest.update(request.target.encode("utf-8") + b"\0")
    digest.update(version.encode("utf-8") + b"\0")
    for cell in cells:
        digest.update(cell_key(cell.config, cell.batch, version).encode("ascii"))
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass
class SweepResult:
    """Everything one request run produced, in a JSON-friendly shape."""

    request: SweepRequest
    figure: FigureData
    summary_lines: List[str] = field(default_factory=list)
    #: Per-cell permanent failures: ``{"cell": label, "error": message}``.
    failures: List[Dict[str, str]] = field(default_factory=list)
    cells_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "request": self.request.to_dict(),
            "figure": self.figure.to_dict(),
            "summary_lines": list(self.summary_lines),
            "failures": list(self.failures),
            "cells_total": self.cells_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
        }


def run_request(
    request: SweepRequest,
    progress: Progress = None,
    workers: Optional[int] = 1,
    cache: object = None,
    cell_timeout_s: Optional[float] = None,
) -> SweepResult:
    """Execute a request end to end and return its :class:`SweepResult`.

    :func:`run_plans` on the request's plan, plus the JSON packaging:
    deterministic for a given request and source tree (the CI service
    smoke asserts the HTTP result is bit-identical to a direct call).
    An error building the figure or its summary is raised.
    """
    plan = request_plan(request)
    with observe_sweeps() as stats:
        [outcome] = run_plans(
            [plan],
            progress=progress,
            workers=workers,
            cache=cache,
            cell_timeout_s=cell_timeout_s,
        )
    if outcome.error is not None:
        raise outcome.error
    return SweepResult(
        request=request,
        figure=outcome.figure,
        summary_lines=outcome.summary.lines() if outcome.summary is not None else [],
        failures=[
            {"cell": failure.cell.label, "error": failure.error}
            for failure in stats.failures
        ],
        cells_total=plan.n_cells,
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        cache_stores=stats.cache_stores,
    )
