"""3-D positions and distances for underwater deployments.

Coordinates are metres.  ``z`` is **depth**, positive downward, so the sea
surface is ``z == 0`` and sinks float at or near it (paper Fig. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Position:
    """An immutable point in the water column (metres; z = depth, +down).

    ``__slots__`` is declared manually (rather than ``slots=True``, which
    needs Python >= 3.10): positions are created per mobility step and per
    geometry query across the whole deployment, and the slotted layout
    both shrinks them and speeds attribute access in ``distance_to``.
    """

    __slots__ = ("x", "y", "z")

    x: float
    y: float
    z: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres.

        Squares are written as explicit multiplications rather than ``** 2``:
        both the scalar hot path and the vectorized broadcast kernel
        (:mod:`repro.phy.vectorized`) must produce bit-identical distances,
        and ``float.__pow__`` routes through libm ``pow`` which does not
        always round identically to ``x * x`` — multiplication is exact IEEE
        arithmetic in both NumPy and CPython (and is faster).
        """
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def midpoint(self, other: "Position") -> "Position":
        return Position(
            (self.x + other.x) / 2.0,
            (self.y + other.y) / 2.0,
            (self.z + other.z) / 2.0,
        )

    def translated(self, dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> "Position":
        """Return a copy shifted by the given offsets."""
        return Position(self.x + dx, self.y + dy, self.z + dz)

    def clamped(
        self,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
        z_range: Tuple[float, float],
    ) -> "Position":
        """Return a copy clamped into the axis-aligned box."""
        return Position(
            min(max(self.x, x_range[0]), x_range[1]),
            min(max(self.y, y_range[0]), y_range[1]),
            min(max(self.z, z_range[0]), z_range[1]),
        )
