"""Unit tests for the event queue, driven through :meth:`Simulator.run`."""

import pytest

from repro.des.errors import EventStateError
from repro.des.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL
from repro.des.simulator import Simulator
from tests.helpers import pending_events


def test_pop_orders_by_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "c")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_sequence():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "normal-1", priority=PRIORITY_NORMAL)
    sim.schedule_at(1.0, fired.append, "low", priority=PRIORITY_LOW)
    sim.schedule_at(1.0, fired.append, "high", priority=PRIORITY_HIGH)
    sim.schedule_at(1.0, fired.append, "normal-2", priority=PRIORITY_NORMAL)
    sim.run()
    assert fired == ["high", "normal-1", "normal-2", "low"]


def test_cancel_skips_event():
    sim = Simulator()
    fired = []
    keep = sim.schedule_at(1.0, fired.append, "keep")
    drop = sim.schedule_at(0.5, fired.append, "drop")
    sim.cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert drop.cancelled and not drop.fired
    assert keep.fired


def test_cancel_fired_event_raises():
    sim = Simulator()
    event = sim.schedule_at(0.0, lambda: None)
    sim.run()
    with pytest.raises(EventStateError):
        event.cancel()


def test_len_tracks_live_events():
    sim = Simulator()
    events = [sim.schedule_at(float(i), lambda: None) for i in range(10)]
    assert pending_events(sim) == 10
    for event in events[:4]:
        sim.cancel(event)
    assert pending_events(sim) == 6
    sim.run(until=4.0)
    assert pending_events(sim) == 5


def test_compaction_keeps_pending_events():
    sim = Simulator()
    times = []
    keepers = [
        sim.schedule_at(1000.0 + i, lambda: times.append(sim.now)) for i in range(10)
    ]
    for _ in range(20):
        victims = [sim.schedule_at(float(i), lambda: None) for i in range(50)]
        for v in victims:
            sim.cancel(v)
    assert pending_events(sim) == 10
    sim.run()
    assert times == sorted(e.time for e in keepers)


def record(sim, fired, keys):
    """A callback that logs its argument and the key it fired under."""

    def callback(tag):
        fired.append(tag)
        keys.append(sim.frontier())

    return callback


class TestPushBulk:
    def test_matches_push_plain_loop_exactly(self):
        times = [3.0, 1.0, 2.0, 1.0, 5.0]
        bulk_fired, plain_fired, bulk_keys, plain_keys = [], [], [], []
        bulk, plain = Simulator(), Simulator()
        bulk.push_bulk(
            times,
            [record(bulk, bulk_fired, bulk_keys)] * len(times),
            [(f"e{i}",) for i in range(len(times))],
            PRIORITY_HIGH,
        )
        callback = record(plain, plain_fired, plain_keys)
        for i, t in enumerate(times):
            plain.push_at(t, callback, (f"e{i}",), PRIORITY_HIGH)
        bulk.run()
        plain.run()
        assert bulk_fired == plain_fired
        assert bulk_keys == plain_keys

    def test_same_time_ties_fire_in_batch_order(self):
        sim = Simulator()
        fired = []
        sim.push_bulk([1.0] * 4, [fired.append] * 4, [(i,) for i in range(4)])
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_interleaves_with_scalar_pushes_by_time_and_priority(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "scalar-normal", priority=PRIORITY_NORMAL)
        sim.push_bulk(
            [1.0, 0.5], [fired.append] * 2, [("bulk-high",), ("bulk-early",)],
            PRIORITY_HIGH,
        )
        sim.schedule_at(0.75, fired.append, "scalar-mid")
        sim.run()
        assert fired == ["bulk-early", "scalar-mid", "bulk-high", "scalar-normal"]

    def test_seq_counter_shared_with_scalar_pushes(self):
        # The batch consumes exactly len(times) sequence numbers, so a later
        # same-time scalar push still loses the tie to every batch entry.
        sim = Simulator()
        fired = []
        sim.push_bulk([2.0, 2.0], [fired.append] * 2, [("b0",), ("b1",)])
        sim.schedule_at(2.0, fired.append, "after")
        sim.run()
        assert fired == ["b0", "b1", "after"]

    def test_live_count_and_empty_batch(self):
        sim = Simulator()
        sim.push_bulk([], [], [])
        assert pending_events(sim) == 0
        sim.push_bulk([1.0, 2.0, 3.0], [lambda x: None] * 3, [(0,), (1,), (2,)])
        assert pending_events(sim) == 3
        sim.run(until=1.0)
        assert pending_events(sim) == 2
