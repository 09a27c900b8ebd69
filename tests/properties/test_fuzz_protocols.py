"""Fuzz tests: random frame streams must never crash a MAC.

Underwater links corrupt, reorder and surprise; a protocol stack that
throws on an unexpected-but-decodable frame is broken.  These tests
deliver randomized (but structurally valid) frames straight into each
protocol's receive path and assert nothing raises and core invariants
hold afterwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.core.ewmac import EwMac
from repro.des.simulator import Simulator
from repro.mac.aloha import SlottedAloha
from repro.mac.csmac import CsMac
from repro.mac.ropa import Ropa
from repro.mac.sfama import SFama
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.phy.frame import Frame, FrameType
from repro.phy.modem import Arrival
from tests.helpers import tracked_neighbors, windows_of

PROTOCOL_CLASSES = [SFama, Ropa, CsMac, EwMac, SlottedAloha]

frame_types = st.sampled_from(list(FrameType))
node_ids = st.integers(min_value=-1, max_value=6)
info_values = st.dictionaries(
    st.sampled_from(
        ["rp", "data_bits", "exdata_start", "case", "links", "appended", "stolen",
         "ata", "req_uid", "rts_slot"]
    ),
    st.one_of(
        st.floats(min_value=-10.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=-10, max_value=100_000),
        st.booleans(),
        st.just([(2, 0.5), (3, 0.9)]),
    ),
    max_size=4,
)


@st.composite
def frames(draw):
    ftype = draw(frame_types)
    size = draw(st.integers(min_value=1, max_value=8192))
    frame = Frame(
        ftype=ftype,
        src=draw(st.integers(min_value=1, max_value=6)),
        dst=draw(node_ids),
        size_bits=size,
        timestamp=draw(st.floats(min_value=0.0, max_value=50.0)),
        pair_delay_s=draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))),
        info=draw(info_values),
    )
    return frame


def build(protocol_cls, seed=0):
    sim = Simulator(seed=seed)
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    node = Node(sim, 0, Position(0, 0, 100), channel)
    mac = protocol_cls(sim, node, channel, timing)
    mac.start()
    # give it a queued packet so sender-side states can engage
    node.enqueue_data(1, 1024)
    node.neighbors.observe(1, 0.4)
    node.neighbors.observe(2, 0.7)
    return sim, mac


@given(frame_list=st.lists(frames(), min_size=1, max_size=12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_frames_never_crash_any_protocol(frame_list, data):
    for protocol_cls in PROTOCOL_CLASSES:
        sim, mac = build(protocol_cls)
        sim.run(until=5.0)
        for frame in frame_list:
            delay = data.draw(st.floats(min_value=0.0, max_value=1.0))
            now = sim.now
            frame.timestamp = min(frame.timestamp, now)
            arrival = Arrival(
                frame=frame,
                src=frame.src,
                start=now,
                end=now + frame.size_bits / 12_000.0,
                level_db=-30.0,
                delay_s=delay,
            )
            mac._on_modem_receive(frame, arrival)
            sim.run(until=sim.now + data.draw(st.floats(min_value=0.0, max_value=3.0)))
        # the MAC survived; quiet bookkeeping never went backwards
        assert mac.quiet_until >= 0.0
        # received-data accounting is non-negative and consistent
        assert mac.stats.total_data_bits_received >= 0
        sim.run(until=sim.now + 30.0)  # let its timers fire and settle


@given(st.lists(frames(), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_ewmac_tracker_survives_arbitrary_overhearing(frame_list):
    sim, mac = build(EwMac)
    sim.run(until=5.0)
    for frame in frame_list:
        frame.timestamp = min(frame.timestamp, sim.now)
        mac._update_tracker(frame)
    # tracker state stays well-formed
    for node_id in tracked_neighbors(mac.tracker):
        for window in windows_of(mac.tracker, node_id):
            assert window.end > window.start
