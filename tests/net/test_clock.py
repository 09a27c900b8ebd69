"""Unit tests for per-node clocks."""

import pytest

from repro.des.simulator import Simulator
from repro.net.clock import NodeClock


def test_perfect_clock_tracks_simulator():
    sim = Simulator()
    clock = NodeClock(sim)
    assert (clock.offset_s, clock.drift_ppm) == (0.0, 0.0)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert clock.now() == sim.now == 5.0


def test_offset_shifts_local_time():
    sim = Simulator()
    clock = NodeClock(sim, offset_s=0.25)
    assert clock.offset_s == 0.25
    assert clock.now() == pytest.approx(0.25)
    assert clock.to_true(0.25) == pytest.approx(0.0)


def test_drift_scales_local_time():
    sim = Simulator()
    clock = NodeClock(sim, drift_ppm=100.0)
    sim.schedule(1000.0, lambda: None)
    sim.run()
    assert clock.now() == pytest.approx(1000.0 * (1 + 1e-4))


def test_round_trip_local_true():
    sim = Simulator()
    clock = NodeClock(sim, offset_s=0.1, drift_ppm=50.0)
    for t in (0.0, 1.0, 123.456):
        assert clock.to_true(clock.to_local(t)) == pytest.approx(t)


def test_to_true_places_local_instants_on_the_true_timeline():
    sim = Simulator()
    clock = NodeClock(sim, offset_s=0.5)
    sim.schedule(10.0, lambda: None)
    sim.run()
    # Local 5.0 was true 4.5, already past; local 12.5 is 2.0 s ahead.
    assert clock.to_true(5.0) == pytest.approx(4.5)
    assert clock.to_true(12.5) - sim.now == pytest.approx(2.0)
