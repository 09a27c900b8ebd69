"""Underwater acoustic channel substrate.

Physics-based substitute for NS-3 UAN's default PHY (see DESIGN.md,
"Substitutions"): geometry and the link budget.  The link budget is
fixed -- a 10 kHz carrier, practical spreading (k = 1.5), a 160 dB
source level, a 10 kHz band, moderate shipping (0.5) and a 5 m/s wind --
so Thorp absorption and Wenz ambient noise are constants of
:mod:`repro.acoustic.sinr`.  Propagation delay (distance over a constant
sound speed) and the threshold decode live on
:class:`~repro.phy.channel.AcousticChannel`.
"""

from .geometry import Position
from .sinr import LinkBudget

__all__ = [
    "LinkBudget",
    "Position",
]
