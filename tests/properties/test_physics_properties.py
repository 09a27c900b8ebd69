"""Property-based tests for acoustic physics invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.acoustic.sinr import LinkBudget
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel

positions = st.builds(
    Position,
    x=st.floats(min_value=-1e5, max_value=1e5),
    y=st.floats(min_value=-1e5, max_value=1e5),
    z=st.floats(min_value=0.0, max_value=1e4),
)


@given(positions, positions)
def test_distance_symmetry_and_nonnegativity(a, b):
    assert a.distance_to(b) >= 0
    assert abs(a.distance_to(b) - b.distance_to(a)) < 1e-9


@given(positions, positions, positions)
def test_triangle_inequality(a, b, c):
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


@given(
    st.floats(min_value=1.0, max_value=50_000.0),
    st.floats(min_value=1.0, max_value=50_000.0),
)
def test_path_loss_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert LinkBudget.received_level_db(lo) >= LinkBudget.received_level_db(hi) - 1e-9


@given(
    st.floats(min_value=1.0, max_value=3000.0),
    st.lists(st.floats(min_value=1.0, max_value=3000.0), max_size=5),
)
def test_sinr_never_exceeds_snr(signal_d, interferer_ds):
    budget = LinkBudget()
    sinr_db = budget.sinr_db_from_levels(
        budget.received_level_db(signal_d),
        [budget.received_level_db(d) for d in interferer_ds],
    )
    assert sinr_db <= budget.snr_db(signal_d) + 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=200.0), max_size=20))
def test_decode_decision_is_monotone_in_level(levels):
    # A louder arrival never fails alone where a quieter one decodes.
    channel = AcousticChannel(Simulator())
    flags = channel.undecodable(np.array(sorted(levels), dtype=np.float64))
    assert flags == sorted(flags, reverse=True)
