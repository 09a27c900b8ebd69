"""Spatial-hash reach culling edge cases.

The grid is a pure *cull*: it may only avoid computing entries whose masks
are provably ``False``, never change a computed value.  These tests pin the
edges where that proof has to hold — cell boundaries, nodes outside the
nominal deployment volume, membership changes (registration, cell
crossings, neighborhood departures) — plus the on-demand point-query path
and the grid counters.  Each geometry is also checked against the scalar
full-scan :class:`~tests.reference_channel.ReferenceChannel`.
"""

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from tests.helpers import modem_of
from tests.reference_channel import ReferenceChannel, fan_out, kernel_link


def build_channel(positions, **channel_kwargs):
    sim = Simulator()
    channel = AcousticChannel(sim, **channel_kwargs)
    holder = list(positions)
    for node_id in range(len(holder)):
        channel.create_modem(node_id, lambda i=node_id: holder[i])
    return sim, channel, holder


def delivered_ids(channel, tx_id):
    """Receivers of a broadcast from ``tx_id``, checked against the oracle.

    The reference reads the same position holder as ``channel``, so it
    sees every move the test makes.
    """
    reference = ReferenceChannel(
        Simulator(), interference_range_factor=channel.interference_range_factor
    )
    for node_id in channel._members:
        reference.create_modem(node_id, lambda i=node_id: channel.position_of(i))
    targets = fan_out(channel, tx_id)
    assert targets == fan_out(reference, tx_id)
    for rx in channel._members:
        if rx != tx_id:
            assert kernel_link(channel, tx_id, rx) == reference.link(tx_id, rx)
    return [rx for rx, _, _ in targets]


class TestCellBoundaries:
    def test_receiver_exactly_at_reach_is_delivered(self):
        # reach == max_range == cell side == 1500: the pair distance sits
        # exactly on both the cell boundary and the mask boundary.
        _, channel, _ = build_channel([Position(0, 0, 0), Position(1500.0, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        assert channel.neighbors_of(0) == (1,)

    def test_receiver_one_ulp_past_reach_is_culled(self):
        import math

        past = math.nextafter(1500.0, 2000.0)
        _, channel, _ = build_channel([Position(0, 0, 0), Position(past, 0, 0)])
        assert delivered_ids(channel, 0) == []
        assert kernel_link(channel, 0, 1)[3] is False

    def test_node_on_cell_corner_is_binned_once(self):
        # (1500, 1500, 0) sits on a corner shared by four cells; floor
        # binning must place it in exactly one, and the 3x3x3 gather from a
        # neighbor cell must still see it.
        _, channel, _ = build_channel(
            [Position(1499.0, 1499.0, 0), Position(1500.0, 1500.0, 0)]
        )
        kernel = channel.kernel
        assert sum(len(v) for v in kernel._cells.values()) == 2
        assert delivered_ids(channel, 0) == [1]

    def test_nodes_outside_deployment_volume(self):
        # Negative coordinates and far-out positions must bin fine (floor
        # division handles negatives) and stay bit-exact.
        positions = [
            Position(-4000.0, -250.0, 0),
            Position(-3000.0, 0, 0),
            Position(50_000.0, 0, 0),
        ]
        _, channel, _ = build_channel(positions)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 2) == pytest.approx(
            positions[0].distance_to(positions[2])
        )


class TestMembershipChanges:
    def test_grid_rebuild_after_add_node(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(800, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        holder.append(Position(0, 900, 0))
        channel.create_modem(2, lambda: holder[2])
        assert delivered_ids(channel, 0) == [1, 2]
        kernel = channel.kernel
        assert sum(len(v) for v in kernel._cells.values()) == 3

    def test_departure_from_neighborhood_clears_reach(self):
        # A node whose cell leaves the 3x3x3 neighborhood must stop being
        # delivered to even though its pair entry is never recomputed.
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        holder[1] = Position(20_000.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == []
        # And re-entry recomputes from the never-computed sentinel.
        holder[1] = Position(1200.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 1) == pytest.approx(1200.0)

    def test_cell_crossing_within_neighborhood(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1400, 0, 0)])
        assert delivered_ids(channel, 0) == [1]
        # Crossing into the next cell (cells are 1500 m) while staying in
        # reach must keep the delivery and update the pair exactly.
        holder[1] = Position(1501.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == []  # 1501 > reach: culled by mask
        holder[1] = Position(1499.0, 0, 0)
        channel.note_position_change(1)
        assert delivered_ids(channel, 0) == [1]
        assert channel.distance_m(0, 1) == pytest.approx(1499.0)

    def test_global_invalidate_rebins_everyone(self):
        _, channel, holder = build_channel(
            [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 1000, 0)]
        )
        assert delivered_ids(channel, 0) == [1, 2]
        holder[1] = Position(30_000.0, 0, 0)
        holder[2] = Position(0, 1100.0, 0)
        channel.note_position_change()  # out-of-band: no node id known
        assert delivered_ids(channel, 0) == [2]
        assert channel.distance_m(0, 2) == pytest.approx(1100.0)


class TestGridCounters:
    def test_grid_candidates_accumulates_per_broadcast(self):
        from repro.phy.frame import FrameType, control_frame

        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(40_000, 0, 0)]
        sim, channel, _ = build_channel(positions)
        sim.schedule(
            0.0, modem_of(channel, 0).transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0)
        )
        sim.run()
        # Node 2 is far outside the 3x3x3 neighborhood of node 0's cell:
        # candidate set is {0, 1} -> 1 candidate excluding self.
        assert channel.stats.broadcasts == 1
        assert channel.stats.grid_candidates == 1
        assert channel.stats.grid_cells == 2
