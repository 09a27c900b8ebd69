"""Property tests: the vectorized kernel is *bit-identical* to scalar math.

The whole design contract of :mod:`repro.phy.vectorized` is that routing
geometry through NumPy changes nothing — not "agrees to 1e-9", but equal
to the last bit, so cached and uncached simulations produce identical
event streams.  These properties drive random geometries (including nodes
exactly at the communication-range boundary) through the production channel
and the uncached :class:`~tests.reference_channel.ReferenceChannel` and
compare with ``==``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from tests.reference_channel import ReferenceChannel, kernel_link

coord = st.floats(min_value=-6000.0, max_value=6000.0, allow_nan=False)
depth = st.floats(min_value=0.0, max_value=4000.0, allow_nan=False)
positions_st = st.lists(
    st.builds(Position, x=coord, y=coord, z=depth), min_size=2, max_size=8
)


def build_pair(positions, **kwargs):
    """A cached and an uncached channel over the same frozen geometry."""
    channels = []
    for channel_cls in (AcousticChannel, ReferenceChannel):
        sim = Simulator()
        channel = channel_cls(sim, **kwargs)
        for node_id, pos in enumerate(positions):
            channel.create_modem(node_id, lambda p=pos: p)
        channels.append(channel)
    return channels


def assert_bit_identical(cached, uncached, n):
    for a in range(n):
        assert cached.neighbors_of(a) == uncached.neighbors_of(a)
        for b in range(n):
            if a == b:
                continue
            assert cached.distance_m(a, b) == uncached.distance_m(a, b)
            assert cached.propagation_delay_s(a, b) == uncached.propagation_delay_s(a, b)
            assert kernel_link(cached, a, b) == uncached.link(a, b)


@given(positions=positions_st)
@settings(max_examples=60, deadline=None)
def test_random_geometry_bit_identical(positions):
    cached, uncached = build_pair(positions)
    assert_bit_identical(cached, uncached, len(positions))


@given(positions=positions_st)
@settings(max_examples=40, deadline=None)
def test_interference_factor_bit_identical(positions):
    cached, uncached = build_pair(positions, interference_range_factor=2.0)
    assert_bit_identical(cached, uncached, len(positions))


@given(
    positions=positions_st,
    speed=st.floats(min_value=1000.0, max_value=2000.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_any_sound_speed_bit_identical(positions, speed):
    cached, uncached = build_pair(positions, sound_speed_mps=speed)
    assert_bit_identical(cached, uncached, len(positions))


@given(positions=positions_st, mover=st.integers(min_value=0, max_value=7))
@settings(max_examples=40, deadline=None)
def test_bit_identical_after_partial_moves(positions, mover):
    """A per-node invalidation round-trips to the same bits as a cold scan."""
    mover %= len(positions)
    holder = list(positions)
    sim = Simulator()
    cached = AcousticChannel(sim)
    for node_id in range(len(holder)):
        cached.create_modem(node_id, lambda i=node_id: holder[i])
    for node_id in range(len(holder)):  # warm every row pre-move
        cached.kernel.row(node_id)

    moved = holder[mover]
    holder[mover] = Position(moved.x + 123.25, moved.y - 77.5, max(0.0, moved.z))
    cached.note_position_change(mover)

    sim2 = Simulator()
    uncached = ReferenceChannel(sim2)
    for node_id in range(len(holder)):
        uncached.create_modem(node_id, lambda i=node_id: holder[i])
    assert_bit_identical(cached, uncached, len(holder))


def test_node_exactly_at_max_range_is_a_neighbor():
    """Boundary pin: distance == max_range_m decodes (<=, not <)."""
    positions = [Position(0, 0, 0), Position(1500.0, 0, 0)]
    cached, uncached = build_pair(positions)
    for channel in (cached, uncached):
        assert channel.distance_m(0, 1) == 1500.0
        assert channel.neighbors_of(0) == (1,)
    *_, in_reach, in_decode_range = kernel_link(cached, 0, 1)
    assert in_decode_range
    assert in_reach
    assert_bit_identical(cached, uncached, len(positions))


def test_node_one_ulp_past_max_range_is_not_a_neighbor():
    import math

    past = math.nextafter(1500.0, math.inf)
    positions = [Position(0, 0, 0), Position(past, 0, 0)]
    cached, uncached = build_pair(positions)
    for channel in (cached, uncached):
        assert channel.neighbors_of(0) == ()
    assert not kernel_link(cached, 0, 1)[4]
    assert_bit_identical(cached, uncached, len(positions))


@given(
    offsets=st.lists(
        st.floats(min_value=-400.0, max_value=400.0, allow_nan=False),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_boundary_node_among_random_neighbors(offsets):
    """Geometries that always include one node exactly at max_range_m."""
    positions = [Position(0, 0, 0), Position(1500.0, 0, 0)]
    positions += [Position(500.0 + dx, dx, abs(dx)) for dx in offsets]
    cached, uncached = build_pair(positions)
    assert_bit_identical(cached, uncached, len(positions))
    assert 1 in cached.neighbors_of(0)
