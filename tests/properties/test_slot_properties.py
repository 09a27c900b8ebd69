"""Property-based tests for slot arithmetic (Eqs. 5-6 invariants)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des.simulator import Simulator
from repro.mac.slots import SlotTiming
from repro.net.clock import NodeClock

timings = st.builds(
    SlotTiming,
    omega_s=st.floats(min_value=1e-4, max_value=0.1),
    tau_max_s=st.floats(min_value=0.1, max_value=5.0),
)


@given(timings, st.floats(min_value=0.0, max_value=1e4))
def test_slot_index_start_roundtrip(timing, time):
    index = timing.slot_index(time)
    assert timing.slot_start(index) <= time + 1e-6
    assert time < timing.slot_start(index + 1) + 1e-6


@given(timings, st.floats(min_value=0.0, max_value=1e4))
def test_next_slot_index_starts_at_or_after(timing, time):
    nxt = timing.slot_start(timing.next_slot_index(time))
    assert nxt >= time - 1e-6
    assert nxt - time <= timing.slot_s + 1e-6


@given(
    timings,
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-200.0, max_value=200.0),
)
def test_local_boundaries_map_to_increasing_true_times(timing, index, offset, drift):
    """A sleeping MAC times its would-be ticks through ``to_true``."""
    clock = NodeClock(Simulator(), offset_s=offset, drift_ppm=drift)
    here = clock.to_true(timing.slot_start(index))
    assert here < clock.to_true(timing.slot_start(index + 1))
    assert clock.to_local(here) == pytest.approx(timing.slot_start(index), abs=1e-6)


@given(
    timings,
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=1e-4, max_value=2.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_eq5_receiver_finished_by_ack_slot(timing, data_slot, td, tau):
    """Eq. (5) invariant: ack slot starts after the data fully arrived."""
    tau = min(tau, timing.tau_max_s)
    ack = timing.ack_slot(data_slot, td, tau)
    arrival_end = timing.slot_start(data_slot) + tau + td
    assert timing.slot_start(ack) >= arrival_end - 1e-6
    # and Eq. 5 is tight: one slot earlier would be too early, unless
    # the minimum of one slot applies
    slots = ack - data_slot
    if slots > 1:
        assert timing.slot_start(ack - 1) < arrival_end + 1e-6


@given(
    timings,
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_eq6_exdata_arrival_equals_ack_tx_end(timing, ack_slot, tau_ij):
    start = timing.exdata_start_time(ack_slot, tau_ij)
    arrival = start + tau_ij
    assert math.isclose(
        arrival, timing.slot_start(ack_slot) + timing.omega_s, rel_tol=0, abs_tol=1e-9
    )
