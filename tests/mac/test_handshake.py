"""Integration tests for the shared slotted handshake engine (S-FAMA)."""

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.mac.base import MacState
from repro.mac.sfama import SFama
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_network(positions, seed=0, protocol=SFama, hello_window=2.0):
    """Wire nodes+macs at given positions; returns (sim, nodes, macs, timing)."""
    sim = Simulator(seed=seed, tracer=Tracer())
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    nodes = []
    macs = []
    for node_id, pos in enumerate(positions):
        node = Node(sim, node_id, pos, channel)
        mac = protocol(sim, node, channel, timing)
        mac.hello_window_s = hello_window
        nodes.append(node)
        macs.append(mac)
    return sim, nodes, macs, timing


def frame_sequence(sim, node_id=None):
    """Transmitted frame descriptions in time order, optionally per node."""
    return [
        r.detail["frame"]
        for r in sim.trace.select("phy.tx", node=node_id)
    ]


class TestHelloPhase:
    def test_neighbors_learned_with_true_delays(self):
        positions = [Position(0, 0, 100), Position(900, 0, 100), Position(0, 1200, 100)]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        sim.run(until=5.0)
        assert nodes[0].neighbors.delay_to(1) == pytest.approx(0.6, abs=1e-6)
        assert nodes[0].neighbors.delay_to(2) == pytest.approx(0.8, abs=1e-6)
        assert nodes[1].neighbors.delay_to(2) == pytest.approx(1.0, abs=1e-6)

    def test_out_of_range_node_not_learned(self):
        positions = [Position(0, 0, 100), Position(5000, 0, 100)]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        sim.run(until=5.0)
        assert nodes[0].neighbors.delay_to(1) is None


class TestFourWayHandshake:
    def _run_single_transfer(self, distance=900.0, bits=2048):
        positions = [Position(0, 0, 100), Position(distance, 0, 100)]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        nodes[0].enqueue_data(1, bits)
        sim.run(until=60.0)
        return sim, nodes, macs, timing

    def test_packet_delivered_and_acked(self):
        sim, nodes, macs, timing = self._run_single_transfer()
        assert nodes[0].app_stats.sent == 1
        assert nodes[1].app_stats.delivered == 1
        assert macs[0].stats.handshakes_completed == 1
        assert macs[1].stats.data_received_bits == 2048

    def test_frame_order_is_rts_cts_data_ack(self):
        sim, nodes, macs, timing = self._run_single_transfer()
        sent0 = [f.split()[0] for f in frame_sequence(sim, 0) if "HELLO" not in f]
        sent1 = [f.split()[0] for f in frame_sequence(sim, 1) if "HELLO" not in f]
        assert sent0 == ["RTS", "DATA"]
        assert sent1 == ["CTS", "ACK"]

    def test_slot_alignment(self):
        """RTS at slot t, CTS at t+1, Data at t+2 (paper Sec. 4.1)."""
        sim, nodes, macs, timing = self._run_single_transfer()
        tx = [
            (r.detail["frame"].split()[0], r.time)
            for r in sim.trace.select("phy.tx")
            if "HELLO" not in r.detail["frame"]
        ]
        by_type = dict((name, time) for name, time in tx)
        rts_slot = timing.slot_index(by_type["RTS"])
        assert timing.time_into_slot(by_type["RTS"]) == pytest.approx(0.0, abs=1e-9)
        assert timing.slot_index(by_type["CTS"]) == rts_slot + 1
        assert timing.slot_index(by_type["DATA"]) == rts_slot + 2

    def test_ack_slot_follows_equation5(self):
        sim, nodes, macs, timing = self._run_single_transfer(distance=1400.0, bits=4096)
        tx = {
            r.detail["frame"].split()[0]: r.time
            for r in sim.trace.select("phy.tx")
            if "HELLO" not in r.detail["frame"]
        }
        data_slot = timing.slot_index(tx["DATA"])
        tau = 1400.0 / 1500.0
        expected = timing.ack_slot(data_slot, 4096 / 12_000.0, tau)
        assert timing.slot_index(tx["ACK"]) == expected

    def test_multiple_packets_serialized(self):
        positions = [Position(0, 0, 100), Position(900, 0, 100)]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        for _ in range(3):
            nodes[0].enqueue_data(1, 1024)
        sim.run(until=120.0)
        assert nodes[0].app_stats.sent == 3
        assert macs[0].state is MacState.IDLE


class TestContention:
    def test_receiver_grants_highest_rp(self):
        # two contenders close enough to the hub for same-slot RTS arrivals
        positions = [
            Position(0, 0, 100),      # hub (receiver)
            Position(800, 0, 100),    # contender A
            Position(0, 900, 100),    # contender B
        ]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        nodes[1].enqueue_data(0, 1024)
        nodes[2].enqueue_data(0, 1024)
        sim.run(until=200.0)
        # Both eventually deliver; the hub granted them one at a time.
        assert nodes[1].app_stats.sent == 1
        assert nodes[2].app_stats.sent == 1
        grants = [f for f in frame_sequence(sim, 0) if f.startswith("CTS")]
        assert len(grants) >= 2 and {"CTS 0->1", "CTS 0->2"} <= set(grants)

    def test_overhearing_neighbor_stays_quiet(self):
        """A bystander hears the negotiation and defers (paper Sec. 4.1)."""
        positions = [
            Position(0, 0, 100),
            Position(900, 0, 100),
            Position(450, 300, 100),  # bystander in range of both
        ]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        nodes[0].enqueue_data(1, 2048)
        sim.run(until=40.0)
        assert macs[2].quiet_until > 0.0

    def test_cts_timeout_backs_off_and_retries(self):
        """Receiver out of range: sender retries then drops."""
        positions = [Position(0, 0, 100), Position(900, 0, 100)]
        sim, nodes, macs, timing = build_network(positions)
        for mac in macs:
            mac.start()
        macs[0].max_retries = 2
        nodes[0].enqueue_data(1, 1024)
        # silence the receiver so no CTS ever comes
        macs[1].stop()
        nodes[1].modem.on_receive = None
        sim.run(until=120.0)
        assert macs[0].stats.contention_failures >= 3
        assert macs[0].stats.drops == 1
        assert not nodes[0].has_pending_data


class TestDuplicateSuppression:
    def test_duplicate_data_not_double_counted(self):
        from repro.phy.frame import data_frame

        positions = [Position(0, 0, 100), Position(900, 0, 100)]
        sim, nodes, macs, timing = build_network(positions)
        frame1 = data_frame(0, 1, 0.0, size_bits=1024, req_uid=77)
        frame2 = data_frame(0, 1, 0.0, size_bits=1024, req_uid=77)
        assert macs[1].register_data_reception(frame1)
        assert not macs[1].register_data_reception(frame2)
        assert macs[1].stats.duplicate_data == 1

    def test_frames_without_uid_always_count(self):
        from repro.phy.frame import data_frame

        positions = [Position(0, 0, 100), Position(900, 0, 100)]
        sim, nodes, macs, timing = build_network(positions)
        frame = data_frame(0, 1, 0.0, size_bits=1024)
        assert macs[1].register_data_reception(frame)
        assert macs[1].register_data_reception(frame)
