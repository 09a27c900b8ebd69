"""Ablation studies beyond the paper's published figures.

Each ablation isolates one modelling or design choice that DESIGN.md calls
out.  Like the figures (:mod:`~repro.experiments.figures`), every ablation
is a declarative :class:`~repro.experiments.engine.FigurePlan` factory,
``*_plan(seeds, quick, overrides)``, run by
:func:`~repro.experiments.engine.run_plan` — so ablations share the
figures' result cache, process pool, cell timeout and failure model.
These are *our* experiments — the paper does not publish them — but each
answers a question the paper's text raises:

* ``packet_size_plan`` — Sec. 2: "larger packets are more efficient than
  multiple small packets"; sweeps the Table 2 packet-size range.
* ``clock_skew_plan`` — Sec. 4.1 assumes synchronized sensors; how fast
  do the slotted protocols degrade when synchronization is imperfect?
* ``interference_range_plan`` — the Bellhop-substitute's key free
  parameter: how far past the decode range transmissions act as jammers.
  This is the sensitivity analysis for our main documented divergence.
* ``deployment_density_plan`` — contention-limited (small volume) vs
  spatial-reuse (Table 2 volume) regimes; shows where EW-MAC's gains are
  largest and why aggressive protocols win in sprawling deployments.
* ``exr_randomization_plan`` — EW-MAC design choice: randomized vs
  earliest EXR send instants inside the feasible window
  (``ScenarioConfig.exr_randomize``).
* ``aloha_anchor_plan`` — the no-negotiation lower anchor across loads.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from .config import ScenarioConfig, table2_config
from .engine import (
    PAPER_PROTOCOLS,
    FigureData,
    FigurePlan,
    GridResults,
    SweepSpec,
    aggregate,
    apply_overrides,
)
from .figures import Overrides, _plan_seeds, _steady_spec


def _throughput(result) -> float:
    return result.throughput_kbps


def _throughput_plan(
    figure_id: str,
    title: str,
    x_label: str,
    x_values: Sequence[float],
    field_name: str,
    protocols: Sequence[str],
    notes: str,
    seeds: Sequence[int],
    quick: bool,
    overrides: Overrides,
    **base_fields: object,
) -> FigurePlan:
    """Steady-state throughput vs one swept ``ScenarioConfig`` field."""
    base = apply_overrides(
        table2_config(sim_time_s=100.0 if quick else 300.0, **base_fields),
        overrides,
    )

    def build(results: GridResults) -> FigureData:
        return FigureData(
            figure_id=figure_id,
            title=title,
            x_label=x_label,
            y_label="Throughput (kbps)",
            x_values=list(x_values),
            series=aggregate(results, x_values, protocols, _throughput),
            notes=notes,
        )

    return FigurePlan(
        figure_id=figure_id,
        spec=_steady_spec(x_values, field_name),
        base=base,
        protocols=tuple(protocols),
        seeds=_plan_seeds(seeds, quick),
        build=build,
    )


def packet_size_plan(
    seeds: Sequence[int] = (1, 2, 3), quick: bool = False, overrides: Overrides = None
) -> FigurePlan:
    """Throughput vs data packet size over Table 2's 1024-4096 bit range."""
    return _throughput_plan(
        "abl-packet-size",
        title="Ablation: throughput vs data packet size (0.6 kbps)",
        x_label="Data packet size (bits)",
        x_values=[1024.0, 4096.0] if quick else [1024.0, 2048.0, 3072.0, 4096.0],
        field_name="data_packet_bits",
        protocols=PAPER_PROTOCOLS,
        notes=(
            "Paper Sec. 2: larger packets amortize the per-exchange slot "
            "cost, so throughput should rise with packet size for every "
            "slotted protocol."
        ),
        seeds=seeds,
        quick=quick,
        overrides=overrides,
        offered_load_kbps=0.6,
    )


def clock_skew_plan(
    seeds: Sequence[int] = (1, 2, 3), quick: bool = False, overrides: Overrides = None
) -> FigurePlan:
    """Throughput vs clock-offset spread (paper assumes perfect sync)."""
    return _throughput_plan(
        "abl-clock-skew",
        title="Ablation: sensitivity to imperfect synchronization",
        x_label="Clock offset std (s)",
        x_values=[0.0, 0.1] if quick else [0.0, 0.005, 0.02, 0.05, 0.1],
        field_name="clock_offset_std_s",
        protocols=("S-FAMA", "EW-MAC"),
        notes=(
            "The slotted design depends on shared slot boundaries (paper "
            "Sec. 4.1, refs [20-22]); throughput should degrade gracefully "
            "for offsets well below omega and visibly beyond it."
        ),
        seeds=seeds,
        quick=quick,
        overrides=overrides,
        offered_load_kbps=0.6,
    )


def interference_range_plan(
    seeds: Sequence[int] = (1, 2, 3), quick: bool = False, overrides: Overrides = None
) -> FigurePlan:
    """Sensitivity to the interference-range factor (model calibration)."""
    return _throughput_plan(
        "abl-interference",
        title="Ablation: interference range vs protocol throughput (0.8 kbps)",
        x_label="Interference range factor (x decode range)",
        x_values=[1.0, 2.0] if quick else [1.0, 1.4, 2.0, 2.6],
        field_name="interference_range_factor",
        protocols=PAPER_PROTOCOLS,
        notes=(
            "Wider interference punishes unprotected mid-slot transmissions "
            "(CS-MAC steals) more than interference-checked ones (EW-MAC "
            "extras) — the key sensitivity behind our documented divergence."
        ),
        seeds=seeds,
        quick=quick,
        overrides=overrides,
        offered_load_kbps=0.8,
    )


def deployment_density_plan(
    seeds: Sequence[int] = (1, 2, 3), quick: bool = False, overrides: Overrides = None
) -> FigurePlan:
    """Contention-limited vs spatial-reuse deployment regimes."""
    return _throughput_plan(
        "abl-density",
        title="Ablation: deployment volume (contention vs spatial reuse)",
        x_label="Region side (m)",
        x_values=[3000.0, 10_000.0] if quick else [3000.0, 5000.0, 7000.0, 10_000.0],
        field_name="side_m",
        protocols=PAPER_PROTOCOLS,
        notes=(
            "Small volumes put every node in one contention domain "
            "(saturation near the paper's ~0.35 kbps); the Table 2 volume "
            "allows parallel exchanges, raising every protocol's ceiling."
        ),
        seeds=seeds,
        quick=quick,
        overrides=overrides,
        offered_load_kbps=0.8,
    )


def aloha_anchor_plan(
    seeds: Sequence[int] = (1, 2, 3), quick: bool = False, overrides: Overrides = None
) -> FigurePlan:
    """The no-negotiation ALOHA anchor across offered loads."""
    return _throughput_plan(
        "abl-aloha",
        title="Ablation: slotted ALOHA anchor vs handshake protocols",
        x_label="Offered load (kbps)",
        x_values=[0.2, 1.0] if quick else [0.2, 0.4, 0.6, 0.8, 1.0],
        field_name="offered_load_kbps",
        protocols=("S-FAMA", "EW-MAC", "ALOHA"),
        notes=(
            "In spatially large UASNs direct transmission wins raw "
            "throughput (cf. Chitre et al. on large-delay networks) at the "
            "cost of reliability/energy; handshakes pay for themselves in "
            "contention-limited regimes."
        ),
        seeds=seeds,
        quick=quick,
        overrides=overrides,
    )


def exr_randomization_plan(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    quick: bool = False,
    overrides: Overrides = None,
) -> FigurePlan:
    """EW-MAC design choice: randomized vs earliest-instant EXR sends.

    The two variants stand in for the plan's protocols: every cell runs
    EW-MAC, with ``exr_randomize`` set by the variant.
    """
    loads = [0.6, 1.0] if quick else [0.4, 0.6, 0.8, 1.0]
    variants = ("randomized", "earliest")
    seeds = tuple(int(s) for s in seeds)
    base = apply_overrides(
        table2_config(sim_time_s=100.0 if quick else 300.0), overrides
    )

    def configure(
        base: ScenarioConfig, x: float, variant: str, seed: int
    ) -> ScenarioConfig:
        return base.with_(
            protocol="EW-MAC",
            exr_randomize=variant == "randomized",
            offered_load_kbps=x,
            seed=seed,
        )

    def build(results: GridResults) -> FigureData:
        extras = aggregate(
            results, loads, variants, lambda r: float(r.extra_completed)
        )
        return FigureData(
            figure_id="abl-exr-randomization",
            title="Ablation: EXR send-instant randomization (EW-MAC)",
            x_label="Offered load (kbps)",
            y_label="Throughput (kbps)",
            x_values=list(loads),
            series=aggregate(results, loads, variants, _throughput),
            notes=(
                "Several losers of one contention round ask the same busy "
                "neighbour; deterministic earliest-instant EXRs collide at it. "
                f"Mean completed extras per run: randomized={extras['randomized']}, "
                f"earliest={extras['earliest']}."
            ),
        )

    return FigurePlan(
        figure_id="abl-exr-randomization",
        spec=SweepSpec(x_values=list(loads), configure=configure),
        base=base,
        protocols=variants,
        seeds=seeds[:2] if quick else seeds,
        build=build,
    )


#: Every ablation plan factory by id (CLI + benchmarks), as
#: :data:`~repro.experiments.figures.ALL_PLANS` is for the figures.
ALL_ABLATIONS: Dict[str, Callable[..., FigurePlan]] = {
    "abl-packet-size": packet_size_plan,
    "abl-clock-skew": clock_skew_plan,
    "abl-interference": interference_range_plan,
    "abl-density": deployment_density_plan,
    "abl-exr-randomization": exr_randomization_plan,
    "abl-aloha": aloha_anchor_plan,
}
