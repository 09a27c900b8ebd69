"""Unit tests for one- and two-hop neighbour tables."""

import pytest

from repro.net.neighbors import NeighborTable, TwoHopTable


class TestNeighborTable:
    def test_observe_and_lookup(self):
        table = NeighborTable(owner_id=0)
        table.observe(1, 0.5)
        assert 1 in table
        assert table.delay_to(1) == 0.5
        assert table.delay_to(2) is None
        assert len(table) == 1

    def test_latest_measurement_wins_by_default(self):
        table = NeighborTable(owner_id=0)
        table.observe(1, 0.5)
        table.observe(1, 0.7)
        assert table.delay_to(1) == pytest.approx(0.7)

    def test_update_keeps_the_incremental_form(self):
        # 0.9 + (0.3 - 0.9) is one ULP below 0.3; the MAC timing that the
        # pinned work counters cover was recorded with this sum.
        table = NeighborTable(owner_id=0)
        table.observe(1, 0.9)
        table.observe(1, 0.3)
        assert table.delay_to(1) == 0.9 + (0.3 - 0.9)
        assert table.delay_to(1) != 0.3

    def test_neighbors_lists_every_observed_id_once(self):
        table = NeighborTable(owner_id=0)
        for node_id, delay in ((1, 0.5), (2, 0.6), (1, 0.4)):
            table.observe(node_id, delay)
        assert sorted(table.neighbors()) == [1, 2]
        assert table.memory_entries() == 2

    def test_update_keeps_first_seen_order(self):
        # MACs build announcements and schedules by iterating neighbors(),
        # so an update must not move its entry.
        table = NeighborTable(owner_id=0)
        for node_id, delay in ((2, 0.5), (1, 0.6), (2, 0.4)):
            table.observe(node_id, delay)
        assert table.neighbors() == [2, 1]

    def test_self_entry_rejected(self):
        table = NeighborTable(owner_id=3)
        with pytest.raises(ValueError):
            table.observe(3, 0.1)

    def test_negative_delay_rejected(self):
        table = NeighborTable(owner_id=0)
        with pytest.raises(ValueError):
            table.observe(1, -0.1)


class TestTwoHopTable:
    def test_announcement_replaces_previous(self):
        table = TwoHopTable(owner_id=0)
        table.record_announcement(1, [(2, 0.5), (3, 0.6)])
        assert table.memory_entries() == 2
        table.record_announcement(1, [(4, 0.7)])
        assert table.memory_entries() == 1

    def test_owner_excluded_from_links(self):
        table = TwoHopTable(owner_id=0)
        table.record_announcement(1, [(0, 0.5), (2, 0.6)])
        assert table.memory_entries() == 1

    def test_memory_sums_over_announcing_neighbours(self):
        # A link two neighbours both announce is stored once per announcer.
        table = TwoHopTable(owner_id=0)
        table.record_announcement(1, [(2, 0.5), (3, 0.6)])
        table.record_announcement(4, [(3, 0.2)])
        assert table.memory_entries() == 3
