"""EXPERIMENTS.md assembly: narrative + paper-vs-measured comparison.

``repro-uasn report --out EXPERIMENTS.md`` runs the paper's figures (the
``all`` group, through the result cache) and writes the document from
that run: one section per figure, with its :class:`FigureData` side by
side with the paper's published series
(:mod:`~repro.experiments.paper_reference`), the paper's account of the
original figure, and the verdict lines of the figure's claims
(:mod:`~repro.experiments.claims`).  So the reproduction record always
reflects the current code.
"""

from __future__ import annotations

from typing import Sequence

from .engine import FigureData, PlanOutcome
from .figures import ALL_PLANS
from .paper_reference import PAPER_SERIES

_HEADER = """\
# EXPERIMENTS — paper vs measured

Reproduction record for every evaluation figure of *"A Protocol for
Efficient Transmissions in UASNs"* (ICDCS-W 2013; extended as Sensors
2016, 16, 343).  Regenerate it, and the figure CSVs, with::

    repro-uasn report --workers 2 --csv results --out EXPERIMENTS.md

Paper values are approximate (read off the published plots — the paper
ships no numeric tables).  Our absolute numbers come from an independent
substrate (see DESIGN.md substitutions), so the comparison targets
**shapes**: orderings, growth directions, crossovers.  Each figure runs
at its row's seeds (3) and ends with its claims, each tested per seed:
a claim's margin is computed on every seed's own series (relative
figures divide by that seed's S-FAMA) and an exact one-sided sign test
over the seeds gives PASS or FAIL at p < 0.05, else INCONCLUSIVE.

## Summary of reproduction status

Every verdict is INCONCLUSIVE: with 3 seeds the smallest p is 0.125.
The "holds on k of n" counts say which way each claim leans.

Claims that hold on every seed:

* **Fig. 6** — EW-MAC >= S-FAMA at the highest load; CS-MAC leads at
  mid loads.
* **Fig. 7** — the protocol spread stays bounded and the opportunistic
  protocols decline toward S-FAMA as density rises.
* **Fig. 8** — drain time grows with load; EW-MAC drains no slower than
  S-FAMA at the top load.
* **Fig. 9** — ROPA and CS-MAC draw more power than EW-MAC (9a, 9b);
  EW-MAC <= S-FAMA and power grows with load (9a); ROPA's and CS-MAC's
  power grows more steeply with node count (9b).
* **Fig. 10a** — S-FAMA < ROPA < EW-MAC < CS-MAC at every density.
* **Fig. 11** — EW-MAC has the best efficiency index, above 1, at the
  highest load.

Known divergences — claims that hold on no seed, or on some only:

1. **CS-MAC, not EW-MAC, leads throughput** at the highest load (Fig. 6:
   0.624 vs 0.464 kbps) and at every density (Fig. 7).  CS-MAC does not
   decline past 0.8 kbps.  ROPA falls below S-FAMA at some load on every
   seed with a non-zero margin (Fig. 6, low loads).
2. **Fig. 8's top-load ordering is not the paper's**: ROPA drains
   slowest (3050 s) and CS-MAC fastest (2065 s).
3. **Fig. 9a's power ordering is not the paper's**: CS-MAC draws the
   most (3.6x ROPA at 0.8 kbps).  Fig. 9b's EW-MAC <= S-FAMA holds on 1
   seed of 3 (36.3 vs 31.7 W averaged at 120 nodes).
4. **Overhead ratios are larger than the paper's** (ROPA 2.4-8.9x,
   EW-MAC 4.0-12.4x, CS-MAC 8.9-26.6x of S-FAMA over Fig. 10a's
   densities, against ~1.5x and 2-3x).  In the dense Fig. 10b, ROPA's
   and CS-MAC's ratios fall with load instead of growing (0 of 3
   seeds), and the ordering holds on 1 seed of 3: ROPA is above EW-MAC
   at 0.4 kbps.
5. **ROPA's and CS-MAC's efficiency indexes are below 1** at every load
   (Fig. 11); ROPA is below 1 at the highest load on 2 seeds of 3.
6. **Absolute scales differ**: top-load throughput is 0.38-0.62 kbps
   (paper 0.29-0.37), drains from 0.4 kbps up take 1,000-3,000 s (paper
   16-65 s), and power, the network's drain energy over 300 s, is
   3.6-344 W in Fig. 9a (paper 70-450 mW).

## Per-figure comparison

"""


def comparison_table(figure: FigureData) -> str:
    """Markdown table: paper / measured at each measured x.

    The paper's value is ``–`` at an x off the figure's full-size axis
    (a quick run's coarser axis).
    """
    paper = PAPER_SERIES[figure.figure_id]
    full_x = list(ALL_PLANS[figure.figure_id].full_x)
    protocols = list(figure.series)
    lines = [
        f"| {figure.x_label} | "
        + " | ".join(f"{p} (paper / ours)" for p in protocols)
        + " |",
        "|" + "---|" * (1 + len(protocols)),
    ]
    for i, x in enumerate(figure.x_values):
        cells = []
        for protocol in protocols:
            published = f"{paper[protocol][full_x.index(x)]:.3g}" if x in full_x else "–"
            cells.append(f"{published} / {figure.series[protocol][i]:.3g}")
        lines.append(f"| {x:g} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def figure_section(figure: FigureData, verdict_lines: Sequence[str]) -> str:
    """One figure's section: the table, the paper's account, the verdicts."""
    lines = [
        f"### {figure.figure_id} — {figure.y_label} vs {figure.x_label}",
        "",
        comparison_table(figure),
        "",
        f"Paper: {figure.notes}",
        "",
        "Claims, sign-tested per seed:",
        "",
    ]
    lines.extend(f"- {line}" for line in verdict_lines)
    return "\n".join(lines) + "\n"


def build_experiments_md(outcomes: Sequence[PlanOutcome]) -> str:
    """The full EXPERIMENTS.md text from each figure's run, in paper order."""
    order = list(ALL_PLANS)
    outcomes = sorted(outcomes, key=lambda outcome: order.index(outcome.figure.figure_id))
    return _HEADER + "\n".join(
        figure_section(outcome.figure, outcome.summary.lines()) for outcome in outcomes
    )
