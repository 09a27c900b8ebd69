"""Tests for the slotted-ALOHA extension baseline."""


from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.mac.aloha import SlottedAloha
from repro.mac.registry import get_protocol
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_pair(seed=0, distance=900.0):
    sim = Simulator(seed=seed, tracer=Tracer())
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    nodes, macs = [], []
    for node_id, pos in enumerate([Position(0, 0, 100), Position(distance, 0, 100)]):
        node = Node(sim, node_id, pos, channel)
        mac = SlottedAloha(sim, node, channel, timing)
        mac.hello_window_s = 1.0
        mac.start()
        nodes.append(node)
        macs.append(mac)
    return sim, nodes, macs, timing


def sent_frames(sim, node_id, ftype):
    """Descriptions of the ``ftype`` frames ``node_id`` put on the air."""
    return [
        r.detail["frame"]
        for r in sim.trace.select("phy.tx", node=node_id)
        if r.detail["frame"].split()[0] == ftype
    ]


def test_registered_in_registry():
    assert get_protocol("aloha") is SlottedAloha
    assert not SlottedAloha.requires_neighbor_info


def test_direct_data_no_control_handshake():
    sim, nodes, macs, timing = build_pair()
    nodes[0].enqueue_data(1, 2048)
    sim.run(until=40.0)
    assert nodes[0].app_stats.sent == 1
    sent_types = {
        r.detail["frame"].split()[0]
        for r in sim.trace.select("phy.tx", node=0)
    }
    assert "DATA" in sent_types
    assert "RTS" not in sent_types and "CTS" not in sent_types


def test_ack_completes_transfer():
    sim, nodes, macs, timing = build_pair()
    nodes[0].enqueue_data(1, 1024)
    sim.run(until=40.0)
    assert macs[1].stats.data_received == 1
    assert sent_frames(sim, 1, "ACK") == ["ACK 1->0"]
    assert macs[0].stats.handshakes_completed == 1


def test_retransmits_until_acked():
    sim, nodes, macs, timing = build_pair()
    macs[0].max_retries = 3
    # silence the receiver: no acks ever
    macs[1].stop()
    nodes[1].modem.on_receive = None
    nodes[0].enqueue_data(1, 1024)
    sim.run(until=120.0)
    attempts = sent_frames(sim, 0, "DATA")
    assert len(attempts) >= 2 and set(attempts) == {"DATA 0->1"}
    assert macs[0].stats.retransmitted_bits == 1024 * (len(attempts) - 1)
    assert macs[0].stats.drops == 1


def test_ignores_overheard_negotiations():
    """ALOHA has no NAV: overhearing sets no quiet period."""
    sim, nodes, macs, timing = build_pair()
    from repro.phy.frame import FrameType, control_frame
    from repro.phy.modem import Arrival

    frame = control_frame(FrameType.RTS, 5, 6, timestamp=0.0)
    arrival = Arrival(frame, 5, 0.0, 0.005, -30.0, 0.4)
    macs[0]._handle_overheard(frame, arrival)
    assert macs[0].quiet_until == 0.0


def test_sustained_traffic_delivers():
    sim, nodes, macs, timing = build_pair(seed=3)
    for _ in range(10):
        nodes[0].enqueue_data(1, 2048)
    sim.run(until=200.0)
    assert nodes[0].app_stats.sent == 10
    assert macs[0].stats.duplicate_data == 0 or macs[1].stats.duplicate_data >= 0


def test_ticks_after_the_first_land_on_the_global_grid(monkeypatch):
    """ALOHA is the perfectly synchronized reference: clock offsets move
    only each node's first tick; every later one is on the global grid."""
    from repro.experiments.config import table2_config
    from repro.experiments.scenario import Scenario

    ticks = {}
    original = SlottedAloha._slot_tick

    def recording(self, index):
        ticks.setdefault(self.node.node_id, []).append((index, self.sim.now))
        original(self, index)

    monkeypatch.setattr(SlottedAloha, "_slot_tick", recording)
    scenario = Scenario(
        table2_config(
            protocol="ALOHA",
            n_sensors=6,
            side_m=3000.0,
            sim_time_s=20.0,
            warmup_s=5.0,
            clock_offset_std_s=0.05,
        )
    )
    scenario.run_steady_state()
    off_grid_starts = 0
    for mac in scenario.macs:
        clock = mac.node.clock
        (first, first_at), *rest = ticks[mac.node.node_id]
        assert first_at == clock.to_true(mac.timing.slot_start(first))
        off_grid_starts += first_at != mac.timing.slot_start(first)
        assert len(rest) > 10
        for index, at in rest:
            assert at == mac.timing.slot_start(index)
    # The offsets really displaced the first ticks, so the grid is not
    # met by accident.
    assert off_grid_starts == len(scenario.macs)
