"""EW-MAC case B: the busy target is itself a *sender* (overheard RTS).

Paper Sec. 4.2: "if j is a sender in another negotiated communication, i
sends the extra request after j sends RTS and before it receives CTS"
(period III), and the extra data arrives after j finishes its exchange.
"""

import pytest

from repro.acoustic.geometry import Position
from repro.core.ewmac.protocol import EwMac, ExtraCase
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame


def build_chain(seed=0):
    """i -> j -> k chain: j relays to k; i wants to send to j.

    When i's RTS(i,j) coincides with j's own RTS(j,k), i overhears a
    negotiation *from* j as a sender — the case B trigger.
    """
    sim = Simulator(seed=seed, tracer=Tracer())
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    positions = [
        Position(0, 0, 100),     # k: j's receiver
        Position(600, 0, 100),   # j: relay (tau_jk = 0.4)
        Position(600, 450, 100), # i: contender toward j (tau_ij = 0.3)
    ]
    nodes, macs = [], []
    for node_id, pos in enumerate(positions):
        node = Node(sim, node_id, pos, channel)
        mac = EwMac(sim, node, channel, timing)
        mac.hello_window_s = 2.0
        mac.start()
        nodes.append(node)
        macs.append(mac)
    return sim, nodes, macs, timing


def test_case_b_planning_from_overheard_rts():
    """Unit-level: an overheard RTS(j,k) plans a TARGET_IS_SENDER extra."""
    sim, nodes, macs, timing = build_chain()
    sim.run(until=3.0)  # hello phase done; neighbours learned
    mac_i = macs[2]
    # put i into WAIT_CTS toward j
    nodes[2].enqueue_data(1, 2048)
    from repro.mac.base import MacState

    mac_i._current_request = nodes[2].peek_request()
    mac_i._target = 1
    mac_i._rts_slot = timing.slot_index(sim.now)
    mac_i.state = MacState.WAIT_CTS
    rts_jk = control_frame(
        FrameType.RTS,
        1,
        0,
        timestamp=timing.slot_start(timing.slot_index(sim.now)),
        pair_delay_s=0.4,
        data_bits=2048,
    )
    context = mac_i._plan_extra_request(1, rts_jk)
    assert context is not None
    assert context.case is ExtraCase.TARGET_IS_SENDER
    # EXData is scheduled to arrive after j finishes receiving Ack(k,j):
    # ack slot start + tau_jk (ack propagation) + omega (ack duration)
    arrival = context.exdata_start + context.tau_ij
    ack_arrival_end = timing.slot_start(context.ack_slot) + 0.4 + timing.omega_s
    assert arrival >= ack_arrival_end


def test_case_b_extra_completes_end_to_end():
    """Integration: some seed completes a sender-case extra communication."""
    for seed in range(60):
        sim, nodes, macs, timing = build_chain(seed)
        # j relays continuously toward k; i keeps trying to reach j
        for _ in range(6):
            nodes[1].enqueue_data(0, 2048)
        nodes[2].enqueue_data(1, 2048)
        sim.run(until=150.0)
        completed = sum(m.extra_stats.completed for m in macs)
        if completed >= 1:
            # i's packet was delivered to j through the extra path
            assert nodes[2].app_stats.sent == 1
            return
    pytest.fail("case B extra never completed in 60 seeds")
