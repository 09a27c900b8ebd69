"""Per-figure experiment plans (paper Sec. 5, Figs. 6-11).

Each figure is described *declaratively* by a plan factory
(``fig6_plan`` ...): axes, base config, protocol set, seeds, and the
aggregation that turns a raw sweep grid into a
:class:`~repro.experiments.engine.FigureData`.  The factories never
execute anything — the pure engine does
(:func:`~repro.experiments.engine.run_plan`), so the same plan can be
run by the CLI, keyed and queued by the job service, or benchmarked.

Run a figure with ``run_plan(ALL_PLANS["fig6"](quick=True))``.  Every
factory accepts ``quick=True`` for a scaled-down run (shorter window,
single seed, coarser axis) used by the benchmark suite, ``seeds`` for
replication control, and ``overrides`` for ad-hoc base-config changes
(the CLI's ``--override`` and the service's request overrides).

:data:`PAPER_EXPECTATIONS` records what the original figure shows, so the
reports (and EXPERIMENTS.md) can place measured series next to the paper's
claims.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

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

Overrides = Optional[Mapping[str, object]]


#: What the paper's figures show (orderings, crossovers, magnitudes).
PAPER_EXPECTATIONS: Dict[str, str] = {
    "fig6": (
        "Throughput rises with offered load and saturates ~0.29-0.37 kbps. "
        "EW-MAC highest at high load; CS-MAC competitive below ~0.6 kbps "
        "but degrades past ~0.8 kbps; ROPA > S-FAMA throughout."
    ),
    "fig7": (
        "At 0.8 kbps offered load, increasing node density shrinks the "
        "exploitable waiting time: EW-MAC/CS-MAC/ROPA decline toward the "
        "flat S-FAMA line; EW-MAC stays best, S-FAMA is density-invariant."
    ),
    "fig8": (
        "Batch drain time grows with offered load; S-FAMA slowest, then "
        "ROPA, then CS-MAC, EW-MAC fastest; indistinguishable below ~20 "
        "packets per 300 s (0.136 kbps)."
    ),
    "fig9a": (
        "Average network power vs offered load (80 sensors): ROPA highest, "
        "then CS-MAC, then S-FAMA; EW-MAC lowest."
    ),
    "fig9b": (
        "Power vs node count (0.3 kbps): ROPA and CS-MAC grow steeply with "
        "density (two-hop upkeep); S-FAMA and EW-MAC grow slowly."
    ),
    "fig10a": (
        "Overhead ratio to S-FAMA vs node count (0.5 kbps): ROPA ~1.5x; "
        "CS-MAC and EW-MAC 2-3x, with CS-MAC above EW-MAC and EW-MAC "
        "growing flattest with node count."
    ),
    "fig10b": (
        "Overhead ratio vs offered load (dense network): all ratios grow "
        "with load; ordering CS-MAC > EW-MAC > ROPA > S-FAMA(=1)."
    ),
    "fig11": (
        "Efficiency index (S-FAMA = 1): EW-MAC highest; CS-MAC and ROPA "
        "above 1 at moderate load; ROPA falls below 1 past ~0.8 kbps."
    ),
}


#: Integer ScenarioConfig fields a sweep axis may drive (x arrives as float).
_INT_FIELDS = ("n_sensors", "data_packet_bits")


def _steady_spec(
    x_values: Sequence[float], field_name: str
) -> SweepSpec:
    """Sweep one ScenarioConfig field over x for steady-state runs."""

    def configure(base: ScenarioConfig, x: float, protocol: str, seed: int) -> ScenarioConfig:
        value = int(x) if field_name in _INT_FIELDS else x
        return base.with_(**{field_name: value, "protocol": protocol, "seed": seed})

    return SweepSpec(x_values=list(x_values), configure=configure)


def _plan_seeds(seeds: Sequence[int], quick: bool) -> Tuple[int, ...]:
    """Quick mode runs a single seed; full mode runs them all."""
    seeds = tuple(int(s) for s in seeds)
    return seeds[:1] if quick else seeds


# ----------------------------------------------------------------------
# Fig. 6 — throughput vs offered load
# ----------------------------------------------------------------------
def fig6_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 6: throughput at different offered loads (60 sensors)."""
    loads = [0.2, 0.6, 1.0] if quick else [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    base = apply_overrides(
        table2_config(sim_time_s=100.0 if quick else 300.0), overrides
    )

    def build(results: GridResults) -> FigureData:
        series = aggregate(results, loads, PAPER_PROTOCOLS, lambda r: r.throughput_kbps)
        return FigureData(
            figure_id="fig6",
            title="Throughput at different offer loads",
            x_label="Offered load (kbps)",
            y_label="Throughput (kbps)",
            x_values=list(loads),
            series=series,
            notes=PAPER_EXPECTATIONS["fig6"],
        )

    return FigurePlan(
        figure_id="fig6",
        spec=_steady_spec(loads, "offered_load_kbps"),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


# ----------------------------------------------------------------------
# Fig. 7 — throughput vs node density
# ----------------------------------------------------------------------
def fig7_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 7: throughput at different sensor densities (0.8 kbps)."""
    nodes = [60, 100, 140] if quick else [60, 80, 100, 120, 140]
    base = apply_overrides(
        table2_config(offered_load_kbps=0.8, sim_time_s=100.0 if quick else 300.0),
        overrides,
    )

    def build(results: GridResults) -> FigureData:
        series = aggregate(results, nodes, PAPER_PROTOCOLS, lambda r: r.throughput_kbps)
        return FigureData(
            figure_id="fig7",
            title="Throughput at different network sensor densities",
            x_label="Number of nodes",
            y_label="Throughput (kbps)",
            x_values=[float(n) for n in nodes],
            series=series,
            notes=PAPER_EXPECTATIONS["fig7"],
        )

    return FigurePlan(
        figure_id="fig7",
        spec=_steady_spec(nodes, "n_sensors"),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


# ----------------------------------------------------------------------
# Fig. 8 — execution time vs offered load (batch drain)
# ----------------------------------------------------------------------
def fig8_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 8: time to complete a fixed batch of transmissions."""
    loads = [0.1, 0.6, 1.0] if quick else [0.01, 0.2, 0.4, 0.6, 0.8, 1.0]
    window_s = 300.0  # the paper's load->packets calibration window
    # "Time for successful transmission": every batch packet must complete,
    # so the retry budget is effectively unlimited in batch experiments.
    base = apply_overrides(
        table2_config(sim_time_s=window_s, max_retries=100), overrides
    )

    def batch_size(x: float, config: ScenarioConfig):
        n_packets = max(1, round(x * 1000.0 * window_s / config.data_packet_bits))
        if quick:
            n_packets = max(1, n_packets // 4)
        max_time = 1800.0 if quick else 7200.0
        return n_packets, max_time

    def build(results: GridResults) -> FigureData:
        series = aggregate(
            results,
            loads,
            PAPER_PROTOCOLS,
            lambda r: r.execution.drain_time_s if r.execution else 0.0,
        )
        return FigureData(
            figure_id="fig8",
            title="Relationship between execution time and offer load",
            x_label="Offered load (kbps)",
            y_label="Execution time (s)",
            x_values=list(loads),
            series=series,
            notes=PAPER_EXPECTATIONS["fig8"],
        )

    return FigurePlan(
        figure_id="fig8",
        spec=SweepSpec(
            x_values=list(loads),
            configure=_steady_spec(loads, "offered_load_kbps").configure,
            batch=batch_size,
        ),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


# ----------------------------------------------------------------------
# Fig. 9 — power consumption
# ----------------------------------------------------------------------
#: Fig. 9's fixed normalization window (the Table 2 simulation time): the
#: paper compares "the power consumption of algorithms when they transmit
#: varied amounts of information" (Sec. 5.2), i.e. total energy to deliver
#: a fixed batch, reported as mean power over the 300 s window.
_FIG9_WINDOW_S = 300.0


def _batch_energy_mw(result) -> float:
    """Total drain energy normalized to the Fig. 9 window, in mW."""
    return result.energy.total_j / _FIG9_WINDOW_S * 1000.0


def _fig9_batch(x: float, config: ScenarioConfig, quick: bool):
    n_packets = max(1, round(x * 1000.0 * _FIG9_WINDOW_S / config.data_packet_bits))
    if quick:
        n_packets = max(1, n_packets // 4)
    return n_packets, (1800.0 if quick else 7200.0)


def fig9a_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 9a: energy to deliver the offered information, 80 sensors.

    Batch-drain experiment (Sec. 5.2 compares protocols "when they transmit
    varied amounts of information"): slower protocols idle-listen longer
    and two-hop protocols pay maintenance, both raising total energy.
    """
    loads = [0.1, 0.4, 0.8] if quick else [0.01, 0.2, 0.4, 0.6, 0.8]
    base = apply_overrides(
        table2_config(n_sensors=80, sim_time_s=_FIG9_WINDOW_S, max_retries=100),
        overrides,
    )

    def build(results: GridResults) -> FigureData:
        series = aggregate(results, loads, PAPER_PROTOCOLS, _batch_energy_mw)
        return FigureData(
            figure_id="fig9a",
            title="Power consumption vs offered load (80 sensors)",
            x_label="Offered load (kbps)",
            y_label="Power consumption (mW, drain energy / 300 s)",
            x_values=list(loads),
            series=series,
            notes=PAPER_EXPECTATIONS["fig9a"],
        )

    return FigurePlan(
        figure_id="fig9a",
        spec=SweepSpec(
            x_values=list(loads),
            configure=_steady_spec(loads, "offered_load_kbps").configure,
            batch=lambda x, config: _fig9_batch(x, config, quick),
        ),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


def fig9b_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 9b: drain energy vs number of sensors at 0.3 kbps."""
    nodes = [60, 90, 120] if quick else [60, 80, 100, 120]
    base = apply_overrides(
        table2_config(
            offered_load_kbps=0.3, sim_time_s=_FIG9_WINDOW_S, max_retries=100
        ),
        overrides,
    )
    x_values = [float(n) for n in nodes]

    def build(results: GridResults) -> FigureData:
        series = aggregate(results, x_values, PAPER_PROTOCOLS, _batch_energy_mw)
        return FigureData(
            figure_id="fig9b",
            title="Power consumption vs number of sensors (0.3 kbps)",
            x_label="Number of nodes",
            y_label="Power consumption (mW, drain energy / 300 s)",
            x_values=x_values,
            series=series,
            notes=PAPER_EXPECTATIONS["fig9b"],
        )

    return FigurePlan(
        figure_id="fig9b",
        spec=SweepSpec(
            x_values=x_values,
            configure=_steady_spec(nodes, "n_sensors").configure,
            batch=lambda x, config: _fig9_batch(0.3, config, quick),
        ),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


# ----------------------------------------------------------------------
# Fig. 10 — overhead
# ----------------------------------------------------------------------
def fig10a_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 10a: overhead ratio vs node count at 0.5 kbps."""
    nodes = [60, 100, 140] if quick else [60, 80, 100, 120, 140]
    base = apply_overrides(
        table2_config(offered_load_kbps=0.5, sim_time_s=100.0 if quick else 300.0),
        overrides,
    )

    def build(results: GridResults) -> FigureData:
        series = aggregate_relative(
            results, nodes, PAPER_PROTOCOLS, lambda r: r.overhead_units
        )
        return FigureData(
            figure_id="fig10a",
            title="Overhead ratio vs number of sensors (0.5 kbps)",
            x_label="Number of nodes",
            y_label="Overhead (ratio to S-FAMA)",
            x_values=[float(n) for n in nodes],
            series=series,
            notes=PAPER_EXPECTATIONS["fig10a"],
        )

    return FigurePlan(
        figure_id="fig10a",
        spec=_steady_spec(nodes, "n_sensors"),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


def fig10b_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 10b: overhead ratio vs offered load (dense network).

    The paper uses 200 sensors; the full runner follows suit, the quick
    variant uses 100 to bound benchmark time.
    """
    loads = [0.4, 0.8] if quick else [0.4, 0.5, 0.6, 0.7, 0.8]
    base = apply_overrides(
        table2_config(
            n_sensors=100 if quick else 200, sim_time_s=100.0 if quick else 300.0
        ),
        overrides,
    )

    def build(results: GridResults) -> FigureData:
        series = aggregate_relative(
            results, loads, PAPER_PROTOCOLS, lambda r: r.overhead_units
        )
        return FigureData(
            figure_id="fig10b",
            title="Overhead ratio vs offered load (dense deployment)",
            x_label="Offered load (kbps)",
            y_label="Overhead (ratio to S-FAMA)",
            x_values=list(loads),
            series=series,
            notes=PAPER_EXPECTATIONS["fig10b"],
        )

    return FigurePlan(
        figure_id="fig10b",
        spec=_steady_spec(loads, "offered_load_kbps"),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


# ----------------------------------------------------------------------
# Fig. 11 — efficiency index
# ----------------------------------------------------------------------
def fig11_plan(
    seeds: Sequence[int] = (1, 2, 3),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """Paper Fig. 11: Eq. (4) efficiency index, S-FAMA normalized to 1."""
    loads = [0.2, 0.6, 1.0] if quick else [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    base = apply_overrides(
        table2_config(sim_time_s=100.0 if quick else 300.0), overrides
    )

    def build(results: GridResults) -> FigureData:
        series = aggregate_relative(
            results, loads, PAPER_PROTOCOLS, lambda r: r.efficiency.value
        )
        return FigureData(
            figure_id="fig11",
            title="Efficiency indexes for different offered loads",
            x_label="Offered load (kbps)",
            y_label="Efficiency index (S-FAMA = 1)",
            x_values=list(loads),
            series=series,
            notes=PAPER_EXPECTATIONS["fig11"],
        )

    return FigurePlan(
        figure_id="fig11",
        spec=_steady_spec(loads, "offered_load_kbps"),
        base=base,
        protocols=PAPER_PROTOCOLS,
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


#: Every figure plan factory by id, for the CLI, the engine's request
#: layer and the benchmarks.
ALL_PLANS: Dict[str, Callable[..., FigurePlan]] = {
    "fig6": fig6_plan,
    "fig7": fig7_plan,
    "fig8": fig8_plan,
    "fig9a": fig9a_plan,
    "fig9b": fig9b_plan,
    "fig10a": fig10a_plan,
    "fig10b": fig10b_plan,
    "fig11": fig11_plan,
}
