"""Unit tests for the neighbour-schedule tracker (interference safety)."""

import pytest

from repro.core.ewmac.schedule import NeighborScheduleTracker, ProtectedInterval
from tests.helpers import total_windows, tracked_neighbors, windows_of


@pytest.fixture
def tracker():
    return NeighborScheduleTracker(owner_id=0)


def test_protect_and_query(tracker):
    tracker.protect(1, 10.0, 12.0, "data-rx")
    windows = windows_of(tracker, 1)
    assert len(windows) == 1
    assert windows[0].reason == "data-rx"
    assert tracked_neighbors(tracker) == [1]
    assert total_windows(tracker) == 1


def test_own_windows_ignored(tracker):
    tracker.protect(0, 10.0, 12.0)
    assert total_windows(tracker) == 0


def test_empty_or_inverted_interval_ignored(tracker):
    tracker.protect(1, 5.0, 5.0)
    tracker.protect(1, 6.0, 4.0)
    assert total_windows(tracker) == 0


def test_send_hitting_window_is_unsafe(tracker):
    tracker.protect(1, 10.0, 12.0)
    delays = {1: 0.5}
    # arrival 10.5..10.6 inside [10,12) -> unsafe
    assert not tracker.is_send_safe(10.0, 0.1, delays)
    # arrival 12.5..12.6 after window -> safe
    assert tracker.is_send_safe(12.0, 0.1, delays)
    # arrival 9.3..9.4 before window -> safe
    assert tracker.is_send_safe(8.8, 0.1, delays)


def test_adjacent_arrival_is_safe(tracker):
    tracker.protect(1, 10.0, 12.0)
    delays = {1: 0.0}
    # arrival exactly [12.0, 12.1): adjacency is not overlap
    assert tracker.is_send_safe(12.0, 0.1, delays)
    # arrival [9.9, 10.0): ends exactly at window start
    assert tracker.is_send_safe(9.9, 0.1, delays)


def test_unknown_delay_cannot_be_checked(tracker):
    tracker.protect(1, 10.0, 12.0)
    assert tracker.is_send_safe(10.0, 0.1, {})  # no delay known -> unchecked


def test_excluded_peer_skipped(tracker):
    tracker.protect(1, 10.0, 12.0)
    delays = {1: 0.5}
    assert tracker.is_send_safe(10.0, 0.1, delays, exclude=(1,))


def test_multiple_neighbors_all_checked(tracker):
    tracker.protect(1, 10.0, 11.0)
    tracker.protect(2, 20.0, 21.0)
    delays = {1: 0.0, 2: 10.0}
    # send at 10.2: arrival at 1 inside its window -> unsafe
    assert not tracker.is_send_safe(10.2, 0.1, delays)
    # send at 15: arrival at 1 is past, at 2 it is 25 (past its window end 21)... safe
    assert tracker.is_send_safe(15.0, 0.1, delays)
    # send at 10.2 toward neighbor 2 only: arrival at 20.2 inside [20,21) -> unsafe
    assert not tracker.is_send_safe(10.2, 0.1, {2: 10.0})


def test_blocking_conflicts_lists_hits(tracker):
    tracker.protect(1, 10.0, 12.0, "data-rx")
    tracker.protect(2, 10.0, 12.0, "ack-rx")
    conflicts = tracker.blocking_conflicts(10.0, 0.5, {1: 0.5, 2: 0.5})
    assert {nid for nid, _ in conflicts} == {1, 2}


def test_purge_drops_past_windows(tracker):
    tracker.protect(1, 10.0, 12.0)
    tracker.protect(1, 30.0, 31.0)
    tracker.protect(2, 5.0, 6.0)
    tracker.purge(now=20.0)
    assert tracked_neighbors(tracker) == [1]
    assert total_windows(tracker) == 1


def test_negative_duration_rejected(tracker):
    with pytest.raises(ValueError):
        tracker.is_send_safe(0.0, -1.0, {})


def test_protected_interval_overlap_logic():
    window = ProtectedInterval(10.0, 12.0)
    assert window.overlaps(11.0, 13.0)
    assert window.overlaps(9.0, 10.5)
    assert not window.overlaps(12.0, 13.0)
    assert not window.overlaps(8.0, 10.0)
