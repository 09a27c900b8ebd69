"""The paper's published figure values, read off the plots.

The paper ships no tables of results, only line plots; the values here
are eyeball reconstructions from the published figures (Sensors 2016,
16, 343, Figs. 6-11), accurate to roughly the marker size.  They exist so
EXPERIMENTS.md can put paper-vs-measured numbers side by side.

Each series is aligned with its figure row's full-size axis
(``ALL_PLANS[figure_id].full_x``).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Published values by figure id, then protocol, one per full-size x.
PAPER_SERIES: Dict[str, Dict[str, Tuple[float, ...]]] = {
    "fig6": {
        "S-FAMA": (0.05, 0.10, 0.19, 0.26, 0.29, 0.29),
        "ROPA": (0.055, 0.11, 0.21, 0.28, 0.31, 0.315),
        "CS-MAC": (0.06, 0.12, 0.24, 0.31, 0.33, 0.30),
        "EW-MAC": (0.06, 0.115, 0.23, 0.30, 0.35, 0.365),
    },
    "fig7": {
        "S-FAMA": (0.295, 0.295, 0.295, 0.295, 0.295),
        "ROPA": (0.33, 0.325, 0.315, 0.307, 0.30),
        "CS-MAC": (0.36, 0.345, 0.33, 0.31, 0.295),
        "EW-MAC": (0.37, 0.355, 0.345, 0.33, 0.315),
    },
    "fig8": {
        "S-FAMA": (2.0, 14.0, 28.0, 42.0, 55.0, 65.0),
        "ROPA": (2.0, 12.0, 24.0, 36.0, 47.0, 55.0),
        "CS-MAC": (2.0, 10.0, 20.0, 30.0, 39.0, 45.0),
        "EW-MAC": (2.0, 8.0, 16.0, 24.0, 30.0, 35.0),
    },
    "fig9a": {
        "S-FAMA": (80.0, 140.0, 200.0, 255.0, 300.0),
        "ROPA": (100.0, 200.0, 290.0, 380.0, 450.0),
        "CS-MAC": (90.0, 170.0, 250.0, 320.0, 380.0),
        "EW-MAC": (70.0, 120.0, 170.0, 215.0, 250.0),
    },
    "fig9b": {
        "S-FAMA": (100.0, 125.0, 155.0, 180.0),
        "ROPA": (150.0, 215.0, 285.0, 350.0),
        "CS-MAC": (140.0, 190.0, 245.0, 300.0),
        "EW-MAC": (90.0, 112.0, 135.0, 160.0),
    },
    "fig10a": {
        "S-FAMA": (1.0, 1.0, 1.0, 1.0, 1.0),
        "ROPA": (1.45, 1.5, 1.5, 1.55, 1.6),
        "CS-MAC": (2.5, 2.7, 2.9, 3.05, 3.2),
        "EW-MAC": (2.2, 2.3, 2.4, 2.5, 2.6),
    },
    "fig10b": {
        "S-FAMA": (1.0, 1.0, 1.0, 1.0, 1.0),
        "ROPA": (1.45, 1.5, 1.5, 1.55, 1.6),
        "CS-MAC": (2.6, 2.7, 2.8, 2.9, 3.0),
        "EW-MAC": (2.2, 2.3, 2.4, 2.55, 2.7),
    },
    "fig11": {
        "S-FAMA": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        "ROPA": (1.05, 1.08, 1.12, 1.15, 1.05, 0.95),
        "CS-MAC": (1.1, 1.15, 1.3, 1.35, 1.25, 1.2),
        "EW-MAC": (1.2, 1.25, 1.35, 1.45, 1.5, 1.5),
    },
}
