"""Property tests: grid-culled results are *bit-identical* to the full scan.

The spatial hash is allowed to avoid work, never to change answers: a
culled broadcast must fan out to exactly the receivers the scalar full
O(n) scan of :class:`~tests.reference_channel.ReferenceChannel` picks, with
exactly the same delays and levels, for any geometry — including nodes
spread far outside each other's 3x3x3 cell neighborhoods (where the cull
actually bites) and after arbitrary interleaved moves (where epochs,
cell re-binning and candidate re-gathers must keep every entry fresh).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from tests.reference_channel import ReferenceChannel, fan_out, kernel_link

# Wide spread (many cells at the 1500 m cell side) so candidate sets are
# real subsets; depth includes 0 so surface sinks are represented.
coord = st.floats(min_value=-20_000.0, max_value=20_000.0, allow_nan=False)
depth = st.floats(min_value=0.0, max_value=8000.0, allow_nan=False)
positions_st = st.lists(
    st.builds(Position, x=coord, y=coord, z=depth), min_size=2, max_size=10
)
moves_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
        st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
    ),
    max_size=6,
)


def build_pair(positions):
    """Production channel and reference channel over shared mutable geometry."""
    channels = []
    holders = []
    for channel_cls in (AcousticChannel, ReferenceChannel):
        sim = Simulator()
        channel = channel_cls(sim, interference_range_factor=2.0)
        holder = list(positions)
        for node_id in range(len(holder)):
            channel.create_modem(node_id, lambda i=node_id, h=holder: h[i])
        channels.append(channel)
        holders.append(holder)
    return channels[0], channels[1], holders[0], holders[1]


def assert_identical(culled, full, n):
    for tx in range(n):
        assert fan_out(culled, tx) == fan_out(full, tx)
        assert culled.neighbors_of(tx) == full.neighbors_of(tx)
        for rx in range(n):
            if tx == rx:
                continue
            assert kernel_link(culled, tx, rx) == full.link(tx, rx)


@given(positions=positions_st)
@settings(max_examples=60, deadline=None)
def test_grid_culled_deliveries_equal_full_scan(positions):
    culled, full, _, _ = build_pair(positions)
    assert_identical(culled, full, len(positions))


@given(positions=positions_st, moves=moves_st)
@settings(max_examples=60, deadline=None)
def test_grid_identical_through_interleaved_moves(positions, moves):
    culled, full, holder_c, holder_f = build_pair(positions)
    n = len(positions)
    assert_identical(culled, full, n)  # warm both caches pre-move
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holder_c[idx]
        new = Position(old.x + dx, old.y + dy, old.z)
        for channel, holder in ((culled, holder_c), (full, holder_f)):
            holder[idx] = new
            channel.note_position_change(idx)
        assert_identical(culled, full, n)


# Geometry concentrated around the decode (1500 m) and interference
# (3000 m at factor 2) boundaries, with step sizes that routinely carry a
# pair across them in either direction, so refreshes must flip masks both
# ways and fan-out lists must be rebuilt on every crossing.
near_coord = st.floats(min_value=-2500.0, max_value=2500.0, allow_nan=False)
near_positions_st = st.lists(
    st.builds(
        Position,
        x=near_coord,
        y=near_coord,
        z=st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
    ),
    min_size=2,
    max_size=8,
)
boundary_moves_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=-900.0, max_value=900.0, allow_nan=False),
        st.floats(min_value=-900.0, max_value=900.0, allow_nan=False),
    ),
    min_size=2,
    max_size=10,
)


@given(positions=near_positions_st, moves=boundary_moves_st)
@settings(max_examples=60, deadline=None)
def test_identical_across_reach_boundary(positions, moves):
    """Small hops accumulate until a pair drifts out of decode range, out
    of interference reach, and back in; the fan-out must never differ."""
    culled, full, holder_c, holder_f = build_pair(positions)
    n = len(positions)
    assert_identical(culled, full, n)
    for raw_idx, dx, dy in moves:
        idx = raw_idx % n
        old = holder_c[idx]
        new = Position(old.x + dx, old.y + dy, old.z)
        for channel, holder in ((culled, holder_c), (full, holder_f)):
            holder[idx] = new
            channel.note_position_change(idx)
        assert_identical(culled, full, n)
