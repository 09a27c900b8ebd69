"""Ablation studies beyond the paper's published figures.

Each ablation isolates one modelling or design choice that DESIGN.md calls
out.  Like the figures (:mod:`~repro.experiments.figures`), every ablation
is a :class:`~repro.experiments.figures.PlanRow` of the target table, built
by the same builder and run by
:func:`~repro.experiments.engine.run_plans` — so ablations share the
figures' result cache, process pool, cell timeout and failure model, and
the job service serves them too.  These are *our* experiments — the paper
does not publish them — but each answers a question the paper's text
raises:

* ``abl-packet-size`` — Sec. 2: "larger packets are more efficient than
  multiple small packets"; sweeps the Table 2 packet-size range.
* ``abl-clock-skew`` — Sec. 4.1 assumes synchronized sensors; how fast
  do the slotted protocols degrade when synchronization is imperfect?
* ``abl-interference`` — the Bellhop-substitute's key free parameter:
  how far past the decode range transmissions act as jammers.  This is
  the sensitivity analysis for our main documented divergence.
* ``abl-density`` — contention-limited (small volume) vs spatial-reuse
  (Table 2 volume) regimes; shows where EW-MAC's gains are largest and
  why aggressive protocols win in sprawling deployments.
* ``abl-exr-randomization`` — EW-MAC design choice: randomized vs
  earliest EXR send instants inside the feasible window
  (``ScenarioConfig.exr_randomize``).
* ``abl-aloha`` — the no-negotiation lower anchor across loads.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .config import ScenarioConfig
from .engine import GridResults, aggregate
from .figures import _LOAD, _THROUGHPUT, PlanRow, by_id, throughput

#: The EXR ablation's two variants stand in for the plan's protocols:
#: every cell runs EW-MAC, with ``exr_randomize`` set by the variant.
_EXR_VARIANTS = ("randomized", "earliest")


def _exr_configure(
    base: ScenarioConfig, x: float, variant: str, seed: int
) -> ScenarioConfig:
    return base.with_(
        protocol="EW-MAC",
        exr_randomize=variant == "randomized",
        offered_load_kbps=x,
        seed=seed,
    )


def _exr_notes(grid: GridResults, x_values: Sequence[float]) -> str:
    extras = aggregate(
        grid, x_values, _EXR_VARIANTS, lambda r: float(r.extra_completed)
    )
    return (
        "Several losers of one contention round ask the same busy "
        "neighbour; deterministic earliest-instant EXRs collide at it. "
        f"Mean completed extras per run: randomized={extras['randomized']}, "
        f"earliest={extras['earliest']}."
    )


#: Every ablation by id: the ablation section of the target table.
ALL_ABLATIONS: Dict[str, PlanRow] = by_id(
    PlanRow(
        "abl-packet-size",
        "Ablation: throughput vs data packet size (0.6 kbps)",
        "Data packet size (bits)",
        _THROUGHPUT,
        quick_x=(1024.0, 4096.0),
        full_x=(1024.0, 2048.0, 3072.0, 4096.0),
        metric=throughput,
        x_field="data_packet_bits",
        base={"offered_load_kbps": 0.6},
        notes=(
            "Paper Sec. 2: larger packets amortize the per-exchange slot "
            "cost, so throughput should rise with packet size for every "
            "slotted protocol."
        ),
    ),
    PlanRow(
        "abl-clock-skew",
        "Ablation: sensitivity to imperfect synchronization",
        "Clock offset std (s)",
        _THROUGHPUT,
        quick_x=(0.0, 0.1),
        full_x=(0.0, 0.005, 0.02, 0.05, 0.1),
        metric=throughput,
        x_field="clock_offset_std_s",
        base={"offered_load_kbps": 0.6},
        protocols=("S-FAMA", "EW-MAC"),
        notes=(
            "The slotted design depends on shared slot boundaries (paper "
            "Sec. 4.1, refs [20-22]); throughput should degrade gracefully "
            "for offsets well below omega and visibly beyond it."
        ),
    ),
    PlanRow(
        "abl-interference",
        "Ablation: interference range vs protocol throughput (0.8 kbps)",
        "Interference range factor (x decode range)",
        _THROUGHPUT,
        quick_x=(1.0, 2.0),
        full_x=(1.0, 1.4, 2.0, 2.6),
        metric=throughput,
        x_field="interference_range_factor",
        base={"offered_load_kbps": 0.8},
        notes=(
            "Wider interference punishes unprotected mid-slot transmissions "
            "(CS-MAC steals) more than interference-checked ones (EW-MAC "
            "extras) — the key sensitivity behind our documented divergence."
        ),
    ),
    PlanRow(
        "abl-density",
        "Ablation: deployment volume (contention vs spatial reuse)",
        "Region side (m)",
        _THROUGHPUT,
        quick_x=(3000.0, 10_000.0),
        full_x=(3000.0, 5000.0, 7000.0, 10_000.0),
        metric=throughput,
        x_field="side_m",
        base={"offered_load_kbps": 0.8},
        notes=(
            "Small volumes put every node in one contention domain "
            "(saturation near the paper's ~0.35 kbps); the Table 2 volume "
            "allows parallel exchanges, raising every protocol's ceiling."
        ),
    ),
    PlanRow(
        "abl-exr-randomization",
        "Ablation: EXR send-instant randomization (EW-MAC)",
        _LOAD,
        _THROUGHPUT,
        quick_x=(0.6, 1.0),
        full_x=(0.4, 0.6, 0.8, 1.0),
        metric=throughput,
        protocols=_EXR_VARIANTS,
        seeds=(1, 2, 3, 4, 5),
        quick_seeds=2,
        notes=_exr_notes,
        configure=_exr_configure,
    ),
    PlanRow(
        "abl-aloha",
        "Ablation: slotted ALOHA anchor vs handshake protocols",
        _LOAD,
        _THROUGHPUT,
        quick_x=(0.2, 1.0),
        full_x=(0.2, 0.4, 0.6, 0.8, 1.0),
        metric=throughput,
        x_field="offered_load_kbps",
        protocols=("S-FAMA", "EW-MAC", "ALOHA"),
        notes=(
            "In spatially large UASNs direct transmission wins raw "
            "throughput (cf. Chitre et al. on large-delay networks) at the "
            "cost of reliability/energy; handshakes pay for themselves in "
            "contention-limited regimes."
        ),
    ),
)
