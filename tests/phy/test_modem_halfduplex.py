"""Half-duplex boundary conditions and outage-flag edge cases.

Complements ``test_modem_channel.py``: exact interval boundaries (a TX
that *touches* an arrival without overlapping must not kill it), the
TX/RX outage flags used by fault injection, and the interval pruning that
keeps the overlap scans cheap.
"""

from __future__ import annotations

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame, data_frame
from repro.phy.modem import RxOutcome

CONTROL_S = 64 / 12_000  # control frame on-air time at the Table 2 bitrate


def build_pair(sim, distance_m=1500.0, **channel_kwargs):
    channel = AcousticChannel(sim, **channel_kwargs)
    pos_a, pos_b = Position(0, 0, 0), Position(distance_m, 0, 0)
    a = channel.create_modem(0, lambda: pos_a)
    b = channel.create_modem(1, lambda: pos_b)
    return channel, a, b


class TestExactBoundaries:
    """Intervals are half-open: touching is not overlapping."""

    def test_tx_ending_exactly_at_arrival_start_does_not_kill_it(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        received = []
        b.on_receive = lambda f, arr: received.append(f.src)
        b.on_rx_failure = lambda arr, out: received.append(out)
        # a's control frame arrives at b over [1.0, 1.0 + CONTROL_S];
        # b's own TX occupies [1.0 - CONTROL_S, 1.0] — adjacent, disjoint.
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.schedule(1.0 - CONTROL_S, b.transmit, control_frame(FrameType.CTS, 1, 0, timestamp=0.0))
        sim.run()
        assert received == [0]
        assert b.stats.rx_half_duplex == 0

    def test_tx_starting_exactly_at_arrival_end_does_not_kill_it(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        received = []
        b.on_receive = lambda f, arr: received.append(f.src)
        arrival_end = 1.0 + CONTROL_S
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.schedule(arrival_end, b.transmit, control_frame(FrameType.CTS, 1, 0, timestamp=0.0))
        sim.run()
        assert received == [0]
        assert b.stats.rx_half_duplex == 0

    def test_one_tick_of_overlap_kills_the_arrival(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        failures = []
        b.on_receive = lambda f, arr: pytest.fail("should not decode")
        b.on_rx_failure = lambda arr, out: failures.append(out)
        # TX starts one microsecond before the arrival's trailing edge.
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=2048))
        data_end = 1.0 + 2048 / 12_000
        sim.schedule(data_end - 1e-6, b.transmit, control_frame(FrameType.CTS, 1, 0, timestamp=0.0))
        sim.run()
        assert failures == [RxOutcome.HALF_DUPLEX]


class TestOutageFlags:
    def test_dead_modem_transmit_still_raises(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        a.enabled = False
        with pytest.raises(RuntimeError, match="failed modem"):
            a.transmit(control_frame(FrameType.RTS, 0, 1, timestamp=0.0))

    def test_tx_outage_swallows_silently(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        b.on_receive = lambda f, arr: pytest.fail("suppressed frame delivered")
        a.tx_enabled = False
        duration = a.transmit(control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run()
        assert duration == 0.0
        assert a.stats.tx_suppressed == 1
        assert a.stats.tx_frames == 0  # never made it onto the air
        assert not a.transmitting

    def test_tx_outage_end_restores_normal_service(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        received = []
        b.on_receive = lambda f, arr: received.append(f.src)
        a.tx_enabled = False
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        def restore():
            a.tx_enabled = True
        sim.schedule(5.0, restore)
        sim.schedule(6.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run()
        assert received == [0]
        assert a.stats.tx_suppressed == 1

    def test_rx_outage_drops_the_leading_edge(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        b.on_receive = lambda f, arr: pytest.fail("outage frame decoded")
        b.rx_enabled = False
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        # Re-enabling mid-flight must not resurrect a never-begun arrival.
        def restore():
            b.rx_enabled = True
        sim.schedule(1.0 + CONTROL_S / 2, restore)
        sim.run()
        assert b.stats.rx_outage == 1
        assert b.stats.rx_ok == 0

    def test_rx_outage_mid_flight_is_offline_not_failure_callback(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        callbacks = []
        b.on_receive = lambda f, arr: callbacks.append("rx")
        b.on_rx_failure = lambda arr, out: callbacks.append(out)
        def cut():
            b.rx_enabled = False
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=2048))
        sim.schedule(1.05, cut)  # arrival in flight over [1.0, ~1.17]
        sim.run()
        # The OFFLINE path is silent toward the MAC: no decode, no
        # failure callback (the MAC must recover by timeout, not signal).
        assert callbacks == []
        assert b.stats.rx_outage == 1

    def test_node_death_mid_flight_is_offline(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        b.on_receive = lambda f, arr: pytest.fail("dead modem decoded")
        def kill():
            b.enabled = False
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=2048))
        sim.schedule(1.05, kill)
        sim.run()
        assert b.stats.rx_outage == 1


class TestPruning:
    def test_stale_tx_intervals_are_pruned(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        for t in (0.0, 10.0, 20.0):
            sim.schedule(t, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run()
        # Each new TX prunes intervals past the retention horizon
        # (now - longest duration seen), so only the latest survives.
        assert len(a._tx_intervals) == 1
        assert a._tx_intervals[0].start == pytest.approx(20.0)

    def test_stale_arrivals_are_pruned_after_decode(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        for t in (0.0, 50.0):
            sim.schedule(t, a.transmit, data_frame(0, 1, 0.0, size_bits=2048))
        sim.run()
        assert b.stats.rx_ok + b.stats.rx_noise == 2  # both resolved
        assert len(b._arrivals) <= 1  # the first one aged out

    def test_retention_horizon_tracks_longest_frame(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=4096))
        sim.run()
        assert a._max_duration_s == pytest.approx(4096 / 12_000)
        sim2 = Simulator()
        channel2, a2, b2 = build_pair(sim2)
        sim2.schedule(0.0, a2.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim2.run()
        assert a2._max_duration_s == pytest.approx(CONTROL_S)
