"""Efficiency index (paper Eq. 4 and Fig. 11).

``E_A = TPT_A / PC_A`` — throughput per unit power.  The paper plots each
protocol's index normalized so S-FAMA equals 1
(:func:`~repro.experiments.engine.aggregate_relative`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.model import EnergyReport
from .throughput import ThroughputReport


@dataclass(frozen=True)
class EfficiencyIndex:
    """Eq. (4) for one protocol run."""

    throughput_kbps: float
    power_mw: float

    @property
    def value(self) -> float:
        """Raw TPT/PC (kbps per mW); 0 when no power was drawn."""
        if self.power_mw <= 0:
            return 0.0
        return self.throughput_kbps / self.power_mw


def efficiency_index(
    throughput: ThroughputReport, energy: EnergyReport
) -> EfficiencyIndex:
    """Build Eq. (4) from the throughput and energy reports."""
    return EfficiencyIndex(
        throughput_kbps=throughput.kbps, power_mw=energy.average_power_mw
    )
