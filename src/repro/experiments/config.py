"""Experiment configuration (paper Table 2).

:data:`TABLE2` holds the paper's published simulation parameters; a
:class:`ScenarioConfig` starts from those defaults and lets each figure
sweep override its own axis (offered load, node count, packet size, ...).
The link itself is not configurable: the 12 kbps bitrate, 1.5 km range,
1.5 km/s sound speed and 64-bit control packets are the constants
:data:`~repro.phy.channel.DEFAULT_BITRATE_BPS`,
:data:`~repro.phy.channel.DEFAULT_RANGE_M`,
:data:`~repro.phy.channel.DEFAULT_SOUND_SPEED_MPS` and
:data:`~repro.phy.frame.CONTROL_PACKET_BITS`, which
:class:`~repro.experiments.scenario.Scenario` passes to the channel, the
slot timing and the deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..faults.plan import FaultPlan

#: Paper Table 2, verbatim.
TABLE2: Dict[str, object] = {
    "number_of_sensors": 60,
    "deployment_area_km3": 1000.0,
    "bandwidth_kbps": 12.0,
    "communication_range_km": 1.5,
    "acoustic_speed_km_s": 1.5,
    "simulation_time_s": 300.0,
    "control_packet_bits": 64,
    "data_packet_bits_range": (1024, 4096),
    "data_packet_bits_default": 2048,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one simulation.

    Defaults reproduce Table 2.  ``warmup_s`` precedes the measurement
    window: hellos go out and slot schedules settle; traffic starts at the
    end of warmup and metrics cover exactly ``sim_time_s`` after it.
    """

    protocol: str = "EW-MAC"
    n_sensors: int = 60
    n_sinks: int = 1
    offered_load_kbps: float = 0.5
    data_packet_bits: int = 2048
    sim_time_s: float = 300.0
    warmup_s: float = 10.0
    seed: int = 1
    side_m: float = 10_000.0
    #: Deployment generator: ``"column"`` (paper Fig. 1 — one connected
    #: water column, densifying as n grows) or ``"tiled"`` (one column per
    #: sink tiled over the horizontal plane — constant density as n and
    #: the region grow together; the scale sweep's shape).
    deployment: str = "column"
    mobility: bool = True
    interference_range_factor: float = 2.0
    max_retries: Optional[int] = None  # None = protocol default
    clock_offset_std_s: float = 0.0  # paper assumes perfect sync (= 0)
    #: EW-MAC only: randomize each EXR send instant inside its feasible
    #: window (False sends at the earliest instant; the
    #: abl-exr-randomization ablation compares the two).
    exr_randomize: bool = True
    #: Declarative fault-injection plan.  The default (empty) plan arms
    #: nothing at all: no events, no RNG streams, bit-identical results.
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if self.n_sensors <= 0:
            raise ValueError("need at least one sensor")
        if self.deployment not in ("column", "tiled"):
            raise ValueError(f"unknown deployment {self.deployment!r}")
        if self.data_packet_bits <= 0:
            raise ValueError("data packet size must be positive")
        # Checked here rather than only where each value is consumed, so a
        # bad override fails before any cell is queued: an infinite or NaN
        # window would otherwise never finish.
        for name in ("sim_time_s", "side_m"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("warmup_s", "offered_load_kbps"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        factor = self.interference_range_factor
        if not (_finite(factor) and factor >= 1):
            raise ValueError(f"interference_range_factor must be finite and >= 1, got {factor!r}")

    def with_(self, **overrides: object) -> "ScenarioConfig":
        """Copy with field overrides (sweep helper)."""
        return replace(self, **overrides)


def _finite(value: object) -> bool:
    """True for a finite real number (False for NaN, infinities, non-numbers)."""
    try:
        return math.isfinite(value)  # type: ignore[arg-type]
    except TypeError:
        return False


def table2_config(**overrides: object) -> ScenarioConfig:
    """A :class:`ScenarioConfig` at exactly the Table 2 defaults."""
    return ScenarioConfig().with_(**overrides) if overrides else ScenarioConfig()
