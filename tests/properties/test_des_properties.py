"""Property-based tests for the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.simulator import Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_queue_pops_in_nondecreasing_time_order(times):
    sim = Simulator()
    popped = []
    for t in times:
        sim.schedule_at(t, lambda: popped.append(sim.now))
    sim.run()
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100),
    st.data(),
)
def test_cancellation_never_loses_live_events(times, data):
    sim = Simulator()
    popped = []
    events = [sim.schedule_at(t, lambda: popped.append(sim.now)) for t in times]
    to_cancel = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(events) - 1), unique=True)
    )
    for index in to_cancel:
        sim.cancel(events[index])
    survivors = sorted(
        events[i].time for i in range(len(events)) if i not in set(to_cancel)
    )
    sim.run()
    assert popped == survivors


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0), min_size=1, max_size=50))
@settings(max_examples=50)
def test_simulator_clock_never_goes_backwards(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_derived_seeds_in_range(seed, name):
    from repro.des.rng import derive_seed

    child = derive_seed(seed, name)
    assert 0 <= child < 2**63
