"""The target table's rows and their one builder (paper Sec. 5, Figs. 6-11).

Every paper figure, every ablation (:mod:`~repro.experiments.ablations`)
and the chaos sweep (:mod:`~repro.experiments.chaos`) has one shape: it
sweeps one axis over a protocol set and plots one seed-averaged metric,
absolute or relative to S-FAMA, from steady-state windows or from batch
drains.  A :class:`PlanRow` declares that shape as data — the swept
field, the quick and full axes, the base fields, the metric — and
calling the row, ``row(seeds, quick, overrides)``, is the one plan
builder: it returns a :class:`~repro.experiments.engine.FigurePlan`
without executing anything.  The engine runs plans
(:func:`~repro.experiments.engine.run_plans`) and keeps the one target
registry (:func:`~repro.experiments.engine.targets`), so the same row is
run by the CLI, keyed and queued by the job service, or benchmarked.

``quick=True`` builds a scaled-down plan (shorter window, the first
``quick_seeds`` seeds, coarser axis) for the benchmark suite, ``seeds``
(default: the row's own) controls replication, and ``overrides`` applies
ad-hoc base-config changes (the CLI's ``--override`` and the service's
request overrides).

:data:`ALL_PLANS` holds the paper's figures.  Each row's notes say what
the original figure shows, and its ``summarize`` is the figure's claims
(:class:`~repro.experiments.claims.Claims`): every run of the figure
sign-tests them per seed and reports one verdict line per claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from .claims import Claim, Claims, above, ascending, growth, lead
from .config import ScenarioConfig, table2_config
from .engine import (
    PAPER_PROTOCOLS,
    FigureData,
    FigurePlan,
    GridResults,
    SweepSpec,
    aggregate,
    aggregate_relative,
    apply_overrides,
)
from .scenario import ScenarioResult

Overrides = Optional[Mapping[str, object]]

#: Integer ScenarioConfig fields a sweep axis may drive (x arrives as float).
_INT_FIELDS = ("n_sensors", "data_packet_bits")

#: The Table 2 window that calibrates a batch: a batch-drain cell sends
#: the packets its offered load generates in this many seconds (Figs. 8
#: and 9), and Fig. 9 reports drain energy as mean power over it.
BATCH_WINDOW_S = 300.0


def batch_size(config: ScenarioConfig, quick: bool) -> Tuple[int, float]:
    """``(n_packets, max_time_s)`` of a batch-drain cell (Figs. 8, 9a, 9b).

    Quick mode drains a quarter of the batch under a shorter time cap.
    """
    n_packets = max(
        1,
        round(
            config.offered_load_kbps * 1000.0 * BATCH_WINDOW_S / config.data_packet_bits
        ),
    )
    if quick:
        return max(1, n_packets // 4), 1800.0
    return n_packets, 7200.0


@dataclass(frozen=True)
class PlanRow:
    """One figure or ablation as data: a row of the target table."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    #: The sweep axis at quick and at full size.
    quick_x: Tuple[float, ...]
    full_x: Tuple[float, ...]
    #: The per-run value each series seed-averages.
    metric: Callable[[ScenarioResult], float]
    #: The ScenarioConfig field each x sets (unless ``configure`` is given).
    x_field: str = ""
    #: ``table2_config`` fields of the base config, and those quick mode
    #: changes on top.
    base: Mapping[str, object] = field(default_factory=dict)
    quick_base: Mapping[str, object] = field(default_factory=dict)
    #: Divide every series by S-FAMA's at the same x (Figs. 10, 11).
    relative: bool = False
    #: Drain a :func:`batch_size` batch per cell instead of running a
    #: steady-state window.
    batch: bool = False
    protocols: Tuple[str, ...] = PAPER_PROTOCOLS
    #: Default seeds, and how many of them quick mode keeps.
    seeds: Tuple[int, ...] = (1, 2, 3)
    quick_seeds: int = 1
    #: Figure notes, or a function of the grid and the axis that writes them.
    notes: Union[str, Callable[[GridResults, Sequence[float]], str]] = ""
    #: A cell's config, in place of setting ``x_field`` (chaos, EXR variants).
    configure: Optional[
        Callable[[ScenarioConfig, float, str, int], ScenarioConfig]
    ] = None
    #: Post-run summary of the grid, given this row: a figure's claims
    #: or the chaos audit counters.
    summarize: Optional[Callable[["PlanRow", GridResults], object]] = None

    def __call__(
        self,
        seeds: Optional[Sequence[int]] = None,
        quick: bool = False,
        overrides: Overrides = None,
    ) -> FigurePlan:
        """Build this row's plan: the one plan builder."""
        x_values = list(self.quick_x if quick else self.full_x)
        # Steady-state windows are Table 2's 300 s (100 s quick); a batch
        # drain runs until every packet is delivered, so it gets the
        # calibration window and an effectively unlimited retry budget.
        fields: Dict[str, object]
        if self.batch:
            fields = {"sim_time_s": BATCH_WINDOW_S, "max_retries": 100}
        else:
            fields = {"sim_time_s": 100.0 if quick else 300.0}
        fields.update(self.base)
        if quick:
            fields.update(self.quick_base)
        base = apply_overrides(table2_config(**fields), overrides)
        seeds = tuple(int(s) for s in (self.seeds if seeds is None else seeds))

        def build(grid: GridResults) -> FigureData:
            combine = aggregate_relative if self.relative else aggregate
            notes = self.notes(grid, x_values) if callable(self.notes) else self.notes
            return FigureData(
                figure_id=self.figure_id,
                title=self.title,
                x_label=self.x_label,
                y_label=self.y_label,
                x_values=[float(x) for x in x_values],
                series=combine(grid, x_values, self.protocols, self.metric),
                notes=notes,
            )

        return FigurePlan(
            figure_id=self.figure_id,
            spec=SweepSpec(
                x_values=x_values,
                configure=self.configure or self._set_x,
                batch=(lambda x, config: batch_size(config, quick))
                if self.batch
                else None,
            ),
            base=base,
            protocols=tuple(self.protocols),
            seeds=seeds[: self.quick_seeds] if quick else seeds,
            build=build,
            summarize=None if self.summarize is None else partial(self.summarize, self),
        )

    def _set_x(
        self, base: ScenarioConfig, x: float, protocol: str, seed: int
    ) -> ScenarioConfig:
        value = int(x) if self.x_field in _INT_FIELDS else x
        return base.with_(**{self.x_field: value, "protocol": protocol, "seed": seed})


def by_id(*rows: PlanRow) -> Dict[str, PlanRow]:
    """A section of the target table, keyed by figure id."""
    return {row.figure_id: row for row in rows}


def throughput(result: ScenarioResult) -> float:
    return result.throughput_kbps


def _drain_time(result: ScenarioResult) -> float:
    return result.execution.drain_time_s if result.execution else 0.0


def _batch_power_mw(result: ScenarioResult) -> float:
    """Total drain energy as mean power over the batch window, in mW."""
    return result.energy.total_j / BATCH_WINDOW_S * 1000.0


def _overhead(result: ScenarioResult) -> float:
    return result.overhead_units


def _efficiency(result: ScenarioResult) -> float:
    return result.efficiency.value


_LOAD = "Offered load (kbps)"
_NODES = "Number of nodes"
_THROUGHPUT = "Throughput (kbps)"
_POWER = "Power consumption (mW, drain energy / 300 s)"
_OVERHEAD = "Overhead (ratio to S-FAMA)"
_LOADS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
_NODE_COUNTS = (60, 80, 100, 120, 140)
_OPPORTUNISTIC = ("ROPA", "CS-MAC", "EW-MAC")


def _spread(s, i: int) -> float:
    """Best minus worst protocol at index ``i``."""
    return max(v[i] for v in s.values()) - min(v[i] for v in s.values())


#: Claims Figs. 9a and 9b share.
_POWER_CLAIMS = (
    Claim(
        "two-hop protocols (ROPA, CS-MAC) draw more power than EW-MAC",
        lambda s: min(s["ROPA"][-1], s["CS-MAC"][-1]) - s["EW-MAC"][-1],
    ),
    Claim("EW-MAC <= S-FAMA power", lambda s: above(s, "S-FAMA", "EW-MAC")),
)

#: Claim Figs. 10a and 10b share.
_OVERHEAD_ORDER = Claim(
    "ordering S-FAMA < ROPA < EW-MAC < CS-MAC at every x",
    lambda s: ascending(s, ("S-FAMA", "ROPA", "EW-MAC", "CS-MAC")),
)

#: The paper's figures by id; each row's notes say what the original shows
#: (orderings, crossovers, magnitudes), and its claims are the ones a
#: per-seed sign test can settle.
ALL_PLANS: Dict[str, PlanRow] = by_id(
    PlanRow(
        "fig6",
        "Throughput at different offer loads",
        _LOAD,
        _THROUGHPUT,
        quick_x=(0.2, 0.6, 1.0),
        full_x=_LOADS,
        metric=throughput,
        x_field="offered_load_kbps",
        notes=(
            "Throughput rises with offered load and saturates ~0.29-0.37 kbps. "
            "EW-MAC highest at high load; CS-MAC competitive below ~0.6 kbps "
            "but degrades past ~0.8 kbps; ROPA > S-FAMA throughout."
        ),
        summarize=Claims(
            Claim("EW-MAC >= S-FAMA at the highest load", lambda s: above(s, "EW-MAC", "S-FAMA")),
            Claim("CS-MAC leads at mid loads", lambda s: lead(s, "CS-MAC", len(s["CS-MAC"]) // 2)),
            Claim("EW-MAC leads at the highest load", lambda s: lead(s, "EW-MAC", -1)),
            Claim("ROPA >= S-FAMA throughout", lambda s: ascending(s, ("S-FAMA", "ROPA"))),
        ),
    ),
    PlanRow(
        "fig7",
        "Throughput at different network sensor densities",
        _NODES,
        _THROUGHPUT,
        quick_x=(60, 100, 140),
        full_x=_NODE_COUNTS,
        metric=throughput,
        x_field="n_sensors",
        base={"offered_load_kbps": 0.8},
        notes=(
            "At 0.8 kbps offered load, increasing node density shrinks the "
            "exploitable waiting time: EW-MAC/CS-MAC/ROPA decline toward the "
            "flat S-FAMA line; EW-MAC stays best, S-FAMA is density-invariant."
        ),
        summarize=Claims(
            Claim(
                "protocol spread narrows (or stays bounded) as density rises",
                lambda s: 2.0 * _spread(s, 0) - _spread(s, -1),
            ),
            Claim(
                "the opportunistic protocols decline toward S-FAMA as density rises",
                lambda s: min(growth(s, "S-FAMA") - growth(s, p) for p in _OPPORTUNISTIC),
            ),
            Claim(
                "EW-MAC stays best across densities",
                lambda s: min(lead(s, "EW-MAC", i) for i in range(len(s["EW-MAC"]))),
            ),
        ),
    ),
    # Fig. 8 — "time for successful transmission" of a fixed batch.
    PlanRow(
        "fig8",
        "Relationship between execution time and offer load",
        _LOAD,
        "Execution time (s)",
        quick_x=(0.1, 0.6, 1.0),
        full_x=(0.01, 0.2, 0.4, 0.6, 0.8, 1.0),
        metric=_drain_time,
        x_field="offered_load_kbps",
        batch=True,
        notes=(
            "Batch drain time grows with offered load; S-FAMA slowest, then "
            "ROPA, then CS-MAC, EW-MAC fastest; indistinguishable below ~20 "
            "packets per 300 s (0.136 kbps)."
        ),
        summarize=Claims(
            Claim(
                "drain time grows with load for every protocol",
                lambda s: min(growth(s, p) for p in s),
            ),
            Claim(
                "EW-MAC drains no slower than S-FAMA at the top load",
                lambda s: above(s, "S-FAMA", "EW-MAC"),
            ),
            Claim(
                "at the top load S-FAMA is slowest, then ROPA, CS-MAC, EW-MAC fastest",
                lambda s: ascending(s, ("EW-MAC", "CS-MAC", "ROPA", "S-FAMA"), at=(-1,)),
            ),
        ),
    ),
    # Fig. 9 compares "the power consumption of algorithms when they
    # transmit varied amounts of information" (Sec. 5.2): total energy to
    # drain a fixed batch, so slower protocols idle-listen longer and
    # two-hop protocols pay maintenance.
    PlanRow(
        "fig9a",
        "Power consumption vs offered load (80 sensors)",
        _LOAD,
        _POWER,
        quick_x=(0.1, 0.4, 0.8),
        full_x=(0.01, 0.2, 0.4, 0.6, 0.8),
        metric=_batch_power_mw,
        x_field="offered_load_kbps",
        base={"n_sensors": 80},
        batch=True,
        notes=(
            "Average network power vs offered load (80 sensors): ROPA highest, "
            "then CS-MAC, then S-FAMA; EW-MAC lowest."
        ),
        summarize=Claims(
            *_POWER_CLAIMS,
            Claim("power grows with offered load", lambda s: min(growth(s, p) for p in s)),
            Claim(
                "power at the highest load: ROPA > CS-MAC > S-FAMA > EW-MAC",
                lambda s: ascending(s, ("EW-MAC", "S-FAMA", "CS-MAC", "ROPA"), at=(-1,)),
            ),
        ),
    ),
    PlanRow(
        "fig9b",
        "Power consumption vs number of sensors (0.3 kbps)",
        _NODES,
        _POWER,
        quick_x=(60.0, 90.0, 120.0),
        full_x=(60.0, 80.0, 100.0, 120.0),
        metric=_batch_power_mw,
        x_field="n_sensors",
        base={"offered_load_kbps": 0.3},
        batch=True,
        notes=(
            "Power vs node count (0.3 kbps): ROPA and CS-MAC grow steeply with "
            "density (two-hop upkeep); S-FAMA and EW-MAC grow slowly."
        ),
        summarize=Claims(
            *_POWER_CLAIMS,
            Claim(
                "ROPA and CS-MAC power grows more steeply with node count than "
                "S-FAMA and EW-MAC",
                lambda s: min(growth(s, "ROPA"), growth(s, "CS-MAC"))
                - max(growth(s, "S-FAMA"), growth(s, "EW-MAC")),
            ),
        ),
    ),
    PlanRow(
        "fig10a",
        "Overhead ratio vs number of sensors (0.5 kbps)",
        _NODES,
        _OVERHEAD,
        quick_x=(60, 100, 140),
        full_x=_NODE_COUNTS,
        metric=_overhead,
        x_field="n_sensors",
        base={"offered_load_kbps": 0.5},
        relative=True,
        notes=(
            "Overhead ratio to S-FAMA vs node count (0.5 kbps): ROPA ~1.5x; "
            "CS-MAC and EW-MAC 2-3x, with CS-MAC above EW-MAC and EW-MAC "
            "growing flattest with node count."
        ),
        summarize=Claims(_OVERHEAD_ORDER),
    ),
    # Fig. 10b: the paper's dense deployment is 200 sensors; quick mode
    # uses 100 to bound benchmark time.
    PlanRow(
        "fig10b",
        "Overhead ratio vs offered load (dense deployment)",
        _LOAD,
        _OVERHEAD,
        quick_x=(0.4, 0.8),
        full_x=(0.4, 0.5, 0.6, 0.7, 0.8),
        metric=_overhead,
        x_field="offered_load_kbps",
        base={"n_sensors": 200},
        quick_base={"n_sensors": 100},
        relative=True,
        notes=(
            "Overhead ratio vs offered load (dense network): all ratios grow "
            "with load; ordering CS-MAC > EW-MAC > ROPA > S-FAMA(=1)."
        ),
        summarize=Claims(
            _OVERHEAD_ORDER,
            Claim(
                "overhead ratios grow with offered load",
                lambda s: min(growth(s, p) for p in _OPPORTUNISTIC),
            ),
        ),
    ),
    # Fig. 11: the Eq. (4) efficiency index.
    PlanRow(
        "fig11",
        "Efficiency indexes for different offered loads",
        _LOAD,
        "Efficiency index (S-FAMA = 1)",
        quick_x=(0.2, 0.6, 1.0),
        full_x=_LOADS,
        metric=_efficiency,
        x_field="offered_load_kbps",
        relative=True,
        notes=(
            "Efficiency index (S-FAMA = 1): EW-MAC highest; CS-MAC and ROPA "
            "above 1 at moderate load; ROPA falls below 1 past ~0.8 kbps."
        ),
        summarize=Claims(
            Claim(
                "EW-MAC has the best efficiency index at high load", lambda s: lead(s, "EW-MAC", -1)
            ),
            Claim("EW-MAC index above 1 at high load", lambda s: s["EW-MAC"][-1] - 1.0),
            Claim("ROPA falls below 1 at the highest load", lambda s: 1.0 - s["ROPA"][-1]),
        ),
    ),
)
