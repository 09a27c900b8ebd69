"""Energy accounting (paper Sec. 5.2)."""

from .model import EnergyReport, network_energy

__all__ = ["EnergyReport", "network_energy"]
