"""Paper-vs-measured comparison reports (EXPERIMENTS.md generation).

Takes the regenerated figure CSVs (written by ``repro-uasn all --csv``)
and the paper's approximate published values
(:mod:`repro.experiments.paper_reference`), and emits per-figure
comparison tables plus a mechanical check of the paper's qualitative
claims — which orderings hold in our substrate, which do not.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .paper_reference import PAPER_FIGURES, PROTOCOLS, PaperFigure


@dataclass
class MeasuredFigure:
    """Measured series loaded back from a figure CSV."""

    figure_id: str
    x_values: List[float]
    series: Dict[str, List[float]]


def load_measured(csv_path: Path) -> MeasuredFigure:
    """Load a ``repro-uasn --csv`` output file."""
    csv_path = Path(csv_path)
    with open(csv_path) as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    protocols = header[1:]
    x_values = [float(r[0]) for r in rows[1:]]
    series = {
        protocol: [float(r[1 + i]) for r in rows[1:]]
        for i, protocol in enumerate(protocols)
    }
    return MeasuredFigure(csv_path.stem, x_values, series)


def _nearest_index(values: Sequence[float], x: float) -> Optional[int]:
    if not values:
        return None
    best = min(range(len(values)), key=lambda i: abs(values[i] - x))
    return best if abs(values[best] - x) <= 1e-9 + 0.05 * max(abs(x), 1.0) else None


def comparison_table(paper: PaperFigure, measured: MeasuredFigure) -> str:
    """Markdown table: paper vs measured at each shared x point."""
    lines = [
        "| "
        + paper.x_label
        + " | "
        + " | ".join(f"{p} (paper / ours)" for p in PROTOCOLS)
        + " |",
        "|" + "---|" * (1 + len(PROTOCOLS)),
    ]
    for px, x in enumerate(paper.x_values):
        mi = _nearest_index(measured.x_values, x)
        cells = []
        for protocol in PROTOCOLS:
            paper_value = paper.series[protocol][px]
            if mi is None or protocol not in measured.series:
                cells.append(f"{paper_value:.3g} / –")
            else:
                cells.append(f"{paper_value:.3g} / {measured.series[protocol][mi]:.3g}")
        lines.append(f"| {x:g} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


@dataclass
class ClaimCheck:
    """One qualitative paper claim and whether our data matches it."""

    claim: str
    holds: Optional[bool]  # None = not mechanically checkable
    detail: str = ""


def check_claims(figure_id: str, measured: MeasuredFigure) -> List[ClaimCheck]:
    """Mechanically verify the ordering-style claims we can check."""
    checks: List[ClaimCheck] = []
    s = measured.series
    if figure_id == "fig6":
        checks.append(
            ClaimCheck(
                "EW-MAC >= S-FAMA at the highest load",
                s["EW-MAC"][-1] >= s["S-FAMA"][-1],
                f"{s['EW-MAC'][-1]:.3f} vs {s['S-FAMA'][-1]:.3f}",
            )
        )
        mid = len(measured.x_values) // 2
        checks.append(
            ClaimCheck(
                "CS-MAC leads at mid loads",
                s["CS-MAC"][mid] >= max(s[p][mid] for p in PROTOCOLS),
                f"CS-MAC {s['CS-MAC'][mid]:.3f} at x={measured.x_values[mid]:g}",
            )
        )
        checks.append(
            ClaimCheck(
                "EW-MAC leads at the highest load",
                s["EW-MAC"][-1] >= max(s[p][-1] for p in PROTOCOLS),
                f"top-load values: "
                + ", ".join(f"{p}={s[p][-1]:.3f}" for p in PROTOCOLS),
            )
        )
    elif figure_id == "fig7":
        spread_first = max(s[p][0] for p in PROTOCOLS) - min(s[p][0] for p in PROTOCOLS)
        spread_last = max(s[p][-1] for p in PROTOCOLS) - min(s[p][-1] for p in PROTOCOLS)
        checks.append(
            ClaimCheck(
                "protocol spread narrows (or stays bounded) as density rises",
                spread_last <= spread_first * 2.0,
                f"spread {spread_first:.3f} -> {spread_last:.3f}",
            )
        )
    elif figure_id == "fig8":
        checks.append(
            ClaimCheck(
                "drain time grows with load for every protocol",
                all(s[p][-1] > s[p][0] for p in PROTOCOLS),
            )
        )
        checks.append(
            ClaimCheck(
                "EW-MAC drains no slower than S-FAMA at the top load",
                s["EW-MAC"][-1] <= s["S-FAMA"][-1] * 1.1,
                f"{s['EW-MAC'][-1]:.0f}s vs {s['S-FAMA'][-1]:.0f}s",
            )
        )
    elif figure_id in ("fig9a", "fig9b"):
        checks.append(
            ClaimCheck(
                "two-hop protocols (ROPA, CS-MAC) draw more power than EW-MAC",
                s["ROPA"][-1] > s["EW-MAC"][-1] and s["CS-MAC"][-1] > s["EW-MAC"][-1],
            )
        )
        checks.append(
            ClaimCheck(
                "EW-MAC <= S-FAMA power",
                s["EW-MAC"][-1] <= s["S-FAMA"][-1] * 1.05,
                f"{s['EW-MAC'][-1]:.0f} vs {s['S-FAMA'][-1]:.0f} mW",
            )
        )
    elif figure_id in ("fig10a", "fig10b"):
        holds = all(
            s["S-FAMA"][i] <= s["ROPA"][i] <= s["EW-MAC"][i] <= s["CS-MAC"][i]
            for i in range(len(measured.x_values))
        )
        checks.append(
            ClaimCheck("ordering S-FAMA < ROPA < EW-MAC < CS-MAC at every x", holds)
        )
    elif figure_id == "fig11":
        checks.append(
            ClaimCheck(
                "EW-MAC has the best efficiency index at high load",
                s["EW-MAC"][-1] >= max(s[p][-1] for p in PROTOCOLS),
            )
        )
        checks.append(
            ClaimCheck(
                "EW-MAC index above 1 at high load",
                s["EW-MAC"][-1] > 1.0,
                f"{s['EW-MAC'][-1]:.2f}",
            )
        )
    return checks


def build_comparison_markdown(results_dir: Path) -> str:
    """Assemble the per-figure paper-vs-measured section of EXPERIMENTS.md."""
    results_dir = Path(results_dir)
    sections = []
    for figure_id, paper in PAPER_FIGURES.items():
        csv_path = results_dir / f"{figure_id}.csv"
        if not csv_path.exists():
            sections.append(f"### {figure_id}\n\n*(no measured data found)*\n")
            continue
        measured = load_measured(csv_path)
        lines = [f"### {figure_id} — {paper.y_label} vs {paper.x_label}", ""]
        lines.append(comparison_table(paper, measured))
        lines.append("")
        lines.append("Paper's claims:")
        mechanical = {c.claim: c for c in check_claims(figure_id, measured)}
        for claim in paper.claims:
            lines.append(f"- {claim}")
        if mechanical:
            lines.append("")
            lines.append("Mechanical checks on our data:")
            for check in mechanical.values():
                mark = "PASS" if check.holds else "FAIL"
                detail = f" ({check.detail})" if check.detail else ""
                lines.append(f"- [{mark}] {check.claim}{detail}")
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)
