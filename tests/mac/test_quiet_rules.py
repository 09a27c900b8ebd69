"""Tests for the NAV/quiet bookkeeping (paper Sec. 4.1 deference rules)."""

import pytest

from repro.acoustic.geometry import Position
from repro.mac.sfama import SFama
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame, data_frame
from repro.phy.modem import Arrival


@pytest.fixture
def mac(sim, timing):
    channel = AcousticChannel(sim)
    node = Node(sim, 9, Position(0, 0, 100), channel)
    return SFama(sim, node, channel, timing)


def sent_frames(sim, node_id, ftype):
    """Descriptions of the ``ftype`` frames ``node_id`` put on the air."""
    return [
        r.detail["frame"]
        for r in sim.trace.select("phy.tx", node=node_id)
        if r.detail["frame"].split()[0] == ftype
    ]


def overhear(mac, frame, delay=0.3):
    arrival = Arrival(frame, frame.src, frame.timestamp + delay,
                      frame.timestamp + delay + 0.005, -30.0, delay)
    mac._handle_overheard(frame, arrival)


class TestQuietSpans:
    def test_overheard_rts_quiets_through_grant_slot(self, mac, timing):
        frame = control_frame(FrameType.RTS, 1, 2, timestamp=0.0)
        overhear(mac, frame)
        assert mac.quiet_until == pytest.approx(timing.slot_start(2))

    def test_overheard_cts_quiets_through_exchange(self, mac, timing):
        frame = control_frame(
            FrameType.CTS, 2, 1, timestamp=timing.slot_start(1),
            pair_delay_s=0.5, data_bits=2048,
        )
        overhear(mac, frame)
        duration = 2048 / 12_000.0
        ack_slot = timing.ack_slot(2, duration, 0.5)
        expected = timing.slot_start(ack_slot) + timing.omega_s + timing.tau_max_s
        assert mac.quiet_until == pytest.approx(expected)

    def test_overheard_data_quiets_until_ack_heard_everywhere(self, mac, timing):
        frame = data_frame(1, 2, timing.slot_start(4), size_bits=4096)
        frame.timestamp = timing.slot_start(4)
        overhear(mac, frame)
        assert mac.quiet_until > timing.slot_start(5)

    def test_quiet_only_extends_never_shrinks(self, mac, timing):
        long_cts = control_frame(
            FrameType.CTS, 2, 1, timestamp=timing.slot_start(1),
            pair_delay_s=1.0, data_bits=4096,
        )
        overhear(mac, long_cts)
        long_quiet = mac.quiet_until
        short_rts = control_frame(FrameType.RTS, 3, 4, timestamp=timing.slot_start(1))
        overhear(mac, short_rts)
        assert mac.quiet_until == long_quiet

    def test_exc_with_schedule_quiets_through_extra(self, mac, timing):
        exdata_start = timing.slot_start(6) + timing.omega_s
        frame = control_frame(
            FrameType.EXC, 2, 1, timestamp=timing.slot_start(4) + 0.5,
            exdata_start=exdata_start, data_bits=2048,
        )
        overhear(mac, frame)
        duration = 2048 / 12_000.0
        expected = (
            exdata_start + timing.tau_max_s + duration
            + timing.omega_s + timing.tau_max_s
        )
        assert mac.quiet_until == pytest.approx(expected)

    def test_exr_quiets_briefly(self, mac, timing, sim):
        frame = control_frame(FrameType.EXR, 2, 1, timestamp=0.5)
        overhear(mac, frame)
        assert 0.0 < mac.quiet_until <= sim.now + timing.slot_s + 1.0


class TestQuietBehaviour:
    def test_quiet_node_does_not_contend(self, sim, timing):
        channel = AcousticChannel(sim)
        a = Node(sim, 0, Position(0, 0, 100), channel)
        b = Node(sim, 1, Position(900, 0, 100), channel)
        mac_a = SFama(sim, a, channel, timing)
        mac_b = SFama(sim, b, channel, timing)
        mac_a.start()
        mac_b.start()
        a.enqueue_data(1, 1024)
        mac_a.quiet_until = 50.0  # forced quiet
        sim.run(until=45.0)
        assert sent_frames(sim, 0, "RTS") == []
        sim.run(until=80.0)
        assert sent_frames(sim, 0, "RTS")[:1] == ["RTS 0->1"]

    def test_quiet_node_ignores_rts_requests(self, sim, timing):
        channel = AcousticChannel(sim)
        a = Node(sim, 0, Position(0, 0, 100), channel)
        b = Node(sim, 1, Position(900, 0, 100), channel)
        mac_a = SFama(sim, a, channel, timing)
        mac_b = SFama(sim, b, channel, timing)
        mac_a.start()
        mac_b.start()
        mac_b.quiet_until = 1e9  # the receiver is permanently deferring
        a.enqueue_data(1, 1024)
        sim.run(until=60.0)
        assert sent_frames(sim, 1, "CTS") == []
        assert mac_a.stats.contention_failures >= 1
