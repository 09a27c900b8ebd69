"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.experiments.scenario as scenario_module
from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.mac.slots import SlotTiming, make_slot_timing
from repro.phy.channel import AcousticChannel
from tests.reference_channel import ReferenceChannel


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with tracing enabled."""
    return Simulator(seed=42, tracer=Tracer())


@pytest.fixture
def timing() -> SlotTiming:
    """The paper's Table 2 slot grid: 64 b / 12 kbps, 1.5 km / 1.5 km/s."""
    return make_slot_timing(
        bitrate_bps=12_000.0, control_bits=64, max_range_m=1500.0, speed_mps=1500.0
    )


@pytest.fixture
def channel(sim: Simulator) -> AcousticChannel:
    """A Table 2 channel on the fresh simulator."""
    return AcousticChannel(sim)


@pytest.fixture
def reference_run(monkeypatch):
    """Call a scenario entry point with the scalar reference channel.

    ``reference_run(run_scenario, config)`` builds every channel of the
    call as a :class:`~tests.reference_channel.ReferenceChannel`, the
    oracle the production channel's results must match bit for bit.
    """

    def run(entry, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(scenario_module, "AcousticChannel", ReferenceChannel)
            return entry(*args, **kwargs)

    return run


def make_line_positions(spacing_m: float, count: int, depth_step_m: float = 0.0):
    """Positions in a line along x, optionally descending in depth."""
    return [
        Position(i * spacing_m, 0.0, 100.0 + i * depth_step_m) for i in range(count)
    ]
