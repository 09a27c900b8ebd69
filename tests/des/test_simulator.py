"""Unit tests for the simulator core."""

import math

import pytest

from repro.des.errors import SchedulingError, WallClockExceeded
from repro.des.simulator import Simulator
from tests.helpers import pending_events


def test_run_advances_clock_in_event_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.schedule(1.0, lambda: seen.append(sim.now))
    end = sim.run()
    assert seen == [1.0, 2.0]
    assert end == 2.0


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=3.0)
    assert fired == [1]
    assert sim.now == 3.0
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_run_until_with_empty_queue_sets_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append((sim.now, n))
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]


def test_cancel_via_simulator_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.cancel(None)  # no-op
    sim.run()
    assert fired == []
    assert pending_events(sim) == 0


def test_heap_compaction_mid_run_keeps_later_events():
    sim = Simulator()
    fired = []
    timers = [sim.schedule(100.0 + i, fired.append, i) for i in range(200)]

    def cancel_timers_then_schedule():
        for timer in timers:
            sim.cancel(timer)  # drives the queue past its compaction ratio
        sim.schedule(1.0, fired.append, "after")

    sim.schedule(1.0, cancel_timers_then_schedule)
    sim.run()
    assert fired == ["after"]
    assert sim.now == 2.0
    assert pending_events(sim) == 0


def test_cancelled_head_event_neither_fires_nor_counts():
    sim = Simulator()
    seen = []
    first = sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, seen.append, 2)
    sim.cancel(first)
    sim.run(until=1.5)
    assert seen == [] and pending_events(sim) == 1
    assert sim.run() == 2.0
    assert seen == [2]
    assert sim.events_processed == 1


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_wall_deadline_unwinds_runaway_run():
    sim = Simulator()

    def reschedule():
        sim.schedule(1.0, reschedule)  # never drains

    sim.schedule(0.0, reschedule)
    sim.set_wall_deadline(0.0)  # already expired: first check trips it
    with pytest.raises(WallClockExceeded):
        sim.run()
    # the cooperative check fires every _WALL_CHECK_EVERY events
    assert sim.events_processed == Simulator._WALL_CHECK_EVERY


def test_wall_deadline_disarmed_and_generous_budgets_pass():
    sim = Simulator()
    for i in range(2 * Simulator._WALL_CHECK_EVERY):
        sim.schedule(float(i), lambda: None)
    sim.set_wall_deadline(3600.0)
    sim.run()  # far under budget: completes normally
    sim.set_wall_deadline(None)
    assert sim._wall_deadline is None


def test_disarmed_wall_deadline_lets_a_long_run_finish():
    sim = Simulator()
    sim.set_wall_deadline(0.0)
    sim.set_wall_deadline(None)
    for i in range(2 * Simulator._WALL_CHECK_EVERY):
        sim.schedule(float(i), lambda: None)
    sim.run()  # an expired deadline would trip at the first check
    assert sim.events_processed == 2 * Simulator._WALL_CHECK_EVERY


def test_wall_deadline_counts_events_across_run_windows():
    # A drain advanced in short windows (one event each here) must still
    # reach a check: the count toward it carries over between run calls.
    sim = Simulator()
    for i in range(2 * Simulator._WALL_CHECK_EVERY):
        sim.schedule(float(i), lambda: None)
    sim.set_wall_deadline(0.0)
    with pytest.raises(WallClockExceeded):
        for i in range(2 * Simulator._WALL_CHECK_EVERY):
            sim.run(until=float(i))
    assert sim.events_processed == Simulator._WALL_CHECK_EVERY


def test_arming_the_deadline_restarts_the_count():
    sim = Simulator()
    for i in range(3 * Simulator._WALL_CHECK_EVERY):
        sim.schedule(float(i), lambda: None)
    sim.run(until=float(Simulator._WALL_CHECK_EVERY // 2 - 1))
    sim.set_wall_deadline(0.0)
    with pytest.raises(WallClockExceeded):
        sim.run()
    assert sim.events_processed == (
        Simulator._WALL_CHECK_EVERY // 2 + Simulator._WALL_CHECK_EVERY
    )


def test_deterministic_rng_streams():
    a = Simulator(seed=7).streams.get("traffic").random(5)
    b = Simulator(seed=7).streams.get("traffic").random(5)
    c = Simulator(seed=8).streams.get("traffic").random(5)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_frontier_is_the_key_of_the_event_being_processed():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, lambda: seen.append(sim.frontier()))
    sim.run(until=2.0)
    assert seen == [(1.0, event.priority, event.seq)]
    assert sim.frontier() == (2.0, math.inf, math.inf)


def test_run_exit_hooks_see_how_far_the_run_got():
    sim = Simulator()
    frontiers = []
    sim.run_exit_hooks.append(lambda frontier: frontiers.append(frontier))
    sim.schedule(1.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    sim.run(until=1.5)
    sim.run()
    assert frontiers == [
        (1.5, math.inf, math.inf),
        (math.inf, math.inf, math.inf),  # drained with no bound
    ]


def test_drained_run_ends_at_the_latest_settled_time():
    sim = Simulator()
    sim.run_exit_hooks.append(lambda frontier: 4.0 if frontier[0] == math.inf else None)
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 4.0
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=6.0) == 6.0


def test_take_seq_reserves_a_queue_position_without_an_event():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    reserved = sim.take_seq()
    second = sim.schedule(1.0, lambda: None)
    assert first.seq < reserved < second.seq
    assert pending_events(sim) == 2
