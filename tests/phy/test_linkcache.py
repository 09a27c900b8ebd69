"""Unit tests for the channel's epoch-invalidated link-state cache."""

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.net.node import Node
from repro.perf import PerfReport
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame
from tests.helpers import modem_of
from tests.reference_channel import ReferenceChannel


def build_channel(positions, channel_cls=AcousticChannel):
    sim = Simulator()
    channel = channel_cls(sim)
    holder = list(positions)
    for node_id in range(len(holder)):
        channel.create_modem(node_id, lambda i=node_id: holder[i])
    return sim, channel, holder


class TestCacheCounters:
    def test_first_lookup_misses_then_hits(self):
        _, channel, _ = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        assert channel.stats.cache_misses == 0
        d1 = channel.distance_m(0, 1)
        assert channel.stats.cache_misses == 1
        assert channel.stats.cache_hits == 0
        d2 = channel.distance_m(0, 1)
        assert d2 == d1 == pytest.approx(1000.0)
        assert channel.stats.cache_hits == 1
        assert channel.stats.cache_misses == 1

    def test_hit_rate_property(self):
        sim, channel, _ = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        assert PerfReport.capture(sim, channel.stats, 0.0).cache_hit_rate == 0.0
        channel.distance_m(0, 1)
        channel.distance_m(0, 1)
        channel.distance_m(0, 1)
        report = PerfReport.capture(sim, channel.stats, 0.0)
        assert report.cache_hit_rate == pytest.approx(2 / 3)

    def test_directed_pairs_cached_separately(self):
        _, channel, _ = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        channel.propagation_delay_s(0, 1)
        channel.propagation_delay_s(1, 0)
        assert channel.stats.cache_misses == 2


class TestEpochInvalidation:
    def test_position_change_is_seen_on_next_query(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        assert channel.distance_m(0, 1) == pytest.approx(1000.0)
        holder[1] = Position(2000, 0, 0)
        channel.note_position_change()
        assert channel.distance_m(0, 1) == pytest.approx(2000.0)
        # The stale entry was recomputed, not served.
        assert channel.stats.cache_misses == 2

    def test_node_position_setter_bumps_epoch(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        node = Node(sim, 0, Position(0, 0, 0), channel)
        other = Node(sim, 1, Position(1000, 0, 0), channel)
        epoch = channel.kernel.total_epoch
        node.position = Position(0, 0, 100)
        assert channel.kernel.total_epoch == epoch + 1
        assert channel.distance_m(0, 1) == pytest.approx(
            node.position.distance_to(other.position)
        )

    def test_assigning_equal_position_keeps_cache_warm(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        node = Node(sim, 0, Position(0, 0, 0), channel)
        Node(sim, 1, Position(1000, 0, 0), channel)
        channel.distance_m(0, 1)
        epoch = channel.kernel.total_epoch
        node.position = Position(0, 0, 0)
        assert channel.kernel.total_epoch == epoch
        channel.distance_m(0, 1)
        assert channel.stats.cache_hits == 1

    def test_create_modem_invalidates(self):
        _, channel, holder = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        assert channel.neighbors_of(0) == (1,)
        holder.append(Position(0, 500, 0))
        channel.create_modem(2, lambda: holder[2])
        assert channel.neighbors_of(0) == (1, 2)


class TestNeighborSemantics:
    def test_failure_injection_filters_without_epoch_bump(self):
        _, channel, _ = build_channel(
            [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 1000, 0)]
        )
        assert channel.neighbors_of(0) == (1, 2)
        epoch = channel.kernel.total_epoch
        modem_of(channel, 1).enabled = False
        # Liveness is read fresh: no invalidation needed, no stale neighbour.
        assert channel.kernel.total_epoch == epoch
        assert channel.neighbors_of(0) == (2,)
        modem_of(channel, 1).enabled = True
        assert channel.neighbors_of(0) == (1, 2)

    def test_matches_uncached_neighbor_set(self):
        positions = [
            Position(0, 0, 0),
            Position(1400, 0, 0),
            Position(0, 1600, 0),
            Position(900, 900, 0),
        ]
        _, cached, _ = build_channel(positions)
        _, uncached, _ = build_channel(positions, ReferenceChannel)
        for node_id in range(len(positions)):
            assert cached.neighbors_of(node_id) == uncached.neighbors_of(node_id)


class TestBroadcastThroughCache:
    def test_broadcast_delivery_identical_to_uncached(self):
        positions = [Position(0, 0, 0), Position(1500, 0, 0), Position(0, 4000, 0)]
        arrivals = {}
        for flag, channel_cls in ((True, AcousticChannel), (False, ReferenceChannel)):
            sim, channel, _ = build_channel(positions, channel_cls)
            seen = []
            modem_of(channel, 1).on_receive = lambda f, arr: seen.append(
                (arr.start, arr.end, arr.level_db, arr.delay_s)
            )
            frame = control_frame(FrameType.RTS, 0, 1, timestamp=0.0)
            sim.schedule(0.0, modem_of(channel, 0).transmit, frame)
            sim.run()
            arrivals[flag] = (seen, channel.stats.deliveries, channel.stats.out_of_range_skips)
        assert arrivals[True] == arrivals[False]

    def test_repeat_broadcasts_hit_cache(self):
        sim, channel, _ = build_channel([Position(0, 0, 0), Position(1000, 0, 0)])
        for t in (0.0, 5.0):
            sim.schedule(
                t, modem_of(channel, 0).transmit,
                control_frame(FrameType.RTS, 0, 1, timestamp=t),
            )
        sim.run()
        assert channel.stats.broadcasts == 2
        assert channel.stats.cache_misses == 1
        assert channel.stats.cache_hits == 1
