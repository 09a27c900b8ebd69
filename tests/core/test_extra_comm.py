"""Integration tests for EW-MAC's extra communications (paper Figs. 2, 4, 5).

The deterministic scenario: hub j with two contenders i and k that send
RTS in the same slot.  j grants one (highest rp); the loser must request an
extra communication and complete it inside the winner's exchange windows.
"""

import pytest

from repro.acoustic.geometry import Position
from repro.core.ewmac.protocol import EwMac
from repro.core.ewmac.states import EwState
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_triangle(seed=0):
    """Hub j=0 plus contenders i=1, k=2, all mutually in range."""
    sim = Simulator(seed=seed, tracer=Tracer())
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    positions = [
        Position(0, 0, 100),      # j: hub / receiver
        Position(0, 450, 100),    # i: tau_ij = 0.3
        Position(600, 0, 100),    # k: tau_jk = 0.4; i-k 750 m
    ]
    nodes = []
    macs = []
    for node_id, pos in enumerate(positions):
        node = Node(sim, node_id, pos, channel)
        mac = EwMac(sim, node, channel, timing)
        mac.hello_window_s = 2.0
        nodes.append(node)
        macs.append(mac)
    return sim, nodes, macs, timing


def run_contention(seed=0, bits=2048, until=120.0):
    sim, nodes, macs, timing = build_triangle(seed)
    for mac in macs:
        mac.start()
    nodes[1].enqueue_data(0, bits)
    nodes[2].enqueue_data(0, bits)
    sim.run(until=until)
    return sim, nodes, macs, timing


def find_seed_with_extra(max_seed=40, **kwargs):
    """Some seeds resolve by plain backoff; find one exercising the extra path."""
    for seed in range(max_seed):
        sim, nodes, macs, timing = run_contention(seed=seed, **kwargs)
        total_extra = sum(m.extra_stats.completed for m in macs)
        if total_extra >= 1:
            return sim, nodes, macs, timing
    pytest.fail("no seed produced a completed extra communication")


class TestExtraCommunication:
    def test_extra_communication_completes(self):
        sim, nodes, macs, timing = find_seed_with_extra()
        assert nodes[1].app_stats.sent == 1
        assert nodes[2].app_stats.sent == 1
        assert nodes[0].app_stats.delivered == 2

    def test_extra_packet_sequence_matches_paper_fig4_fig5(self):
        """EXR -> EXC -> EXData -> EXAck, all off the slot grid."""
        sim, nodes, macs, timing = find_seed_with_extra()
        extra_tx = [
            (r.detail["frame"].split()[0], r.time)
            for r in sim.trace.select("phy.tx")
            if r.detail["frame"].split()[0] in ("EXR", "EXC", "EXDATA", "EXACK")
        ]
        kinds = [k for k, _ in extra_tx]
        assert kinds[:4] == ["EXR", "EXC", "EXDATA", "EXACK"]
        times = [t for _, t in extra_tx]
        assert times == sorted(times)

    def test_exdata_arrives_after_ack_transmission(self):
        """The Eq. (6) invariant: EXData reaches j only after Ack(j,k) ends."""
        sim, nodes, macs, timing = find_seed_with_extra()
        ack_tx = [
            r.time for r in sim.trace.select("phy.tx", node=0)
            if r.detail["frame"].startswith("ACK")
        ]
        exdata_rx = [
            r.time for r in sim.trace.select("phy.rx", node=0)
            if r.detail["frame"].startswith("EXDATA")
        ]
        assert ack_tx and exdata_rx
        omega = timing.omega_s
        # The EXData reception completes after the Ack transmission ended.
        assert exdata_rx[0] > ack_tx[0] + omega

    def test_extra_does_not_disturb_negotiated_exchange(self):
        """The winner's Data must be received intact despite the extra."""
        sim, nodes, macs, timing = find_seed_with_extra()
        hub_failures = [
            r for r in sim.trace.select("phy.rx_fail", node=0)
            if r.detail["frame"].startswith("DATA")
        ]
        assert hub_failures == []

    def test_extra_stats_funnel_consistency(self):
        sim, nodes, macs, timing = find_seed_with_extra()
        for mac in macs:
            es = mac.extra_stats
            assert es.completed <= es.granted_received <= es.requested
            assert es.grants_issued >= 0

    def test_loser_visits_asking_extra_state(self):
        sim, nodes, macs, timing = find_seed_with_extra()
        asking_visits = [
            m for m in macs
            if any(to is EwState.ASKING_EXTRA for _, _, to in m.fig3.history)
        ]
        assert asking_visits, "no MAC ever entered Asking Extra Commu"

    def test_hub_visits_asked_extra_state(self):
        sim, nodes, macs, timing = find_seed_with_extra()
        hub_states = [to for _, _, to in macs[0].fig3.history]
        assert EwState.ASKED_EXTRA in hub_states


class TestExtraFailureModes:
    def test_unknown_peer_exdata_ignored(self):
        sim, nodes, macs, timing = build_triangle()
        from repro.phy.frame import data_frame
        from repro.phy.modem import Arrival

        frame = data_frame(2, 0, 0.0, extra=True)
        arrival = Arrival(frame, 2, 0.0, 0.17, -30.0, 0.4)
        macs[0]._on_exdata_received(frame, arrival)  # no _asked context
        assert macs[0].stats.opportunistic_received == 0

    def test_give_up_sets_quiet(self):
        """Paper: on EXC timeout the asker returns to Quiet."""
        from repro.core.ewmac.protocol import AskingContext, ExtraCase

        sim, nodes, macs, timing = build_triangle()
        mac = macs[1]
        context = AskingContext(
            target=0,
            case=ExtraCase.TARGET_IS_RECEIVER,
            tau_ij=0.3,
            ack_slot=5,
            exr_send_time=1.0,
            exdata_start=4.0,
            data_bits=2048,
            exchange_end=9.0,
        )
        mac._asking = context
        mac._give_up_extra()
        assert mac._asking is None
        assert mac.quiet_until == pytest.approx(9.0)
        assert mac.extra_stats.given_up == 1
