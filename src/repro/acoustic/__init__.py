"""Underwater acoustic channel substrate.

Physics-based substitute for NS-3 UAN's default PHY (see DESIGN.md,
"Substitutions"): geometry, Thorp attenuation, Wenz ambient noise and the
SINR link budget.  Propagation delay (distance over a constant sound
speed) and the threshold decode live on
:class:`~repro.phy.channel.AcousticChannel`.
"""

from .attenuation import (
    CYLINDRICAL_SPREADING,
    PRACTICAL_SPREADING,
    SPHERICAL_SPREADING,
    PathLossModel,
    thorp_absorption_db_per_km,
)
from .geometry import Position, bounding_box
from .noise import AmbientNoiseModel
from .sinr import DEFAULT_SOURCE_LEVEL_DB, LinkBudget, db_to_linear, linear_to_db

__all__ = [
    "AmbientNoiseModel",
    "CYLINDRICAL_SPREADING",
    "DEFAULT_SOURCE_LEVEL_DB",
    "LinkBudget",
    "PRACTICAL_SPREADING",
    "PathLossModel",
    "Position",
    "SPHERICAL_SPREADING",
    "bounding_box",
    "db_to_linear",
    "linear_to_db",
    "thorp_absorption_db_per_km",
]
