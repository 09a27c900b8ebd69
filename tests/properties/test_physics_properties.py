"""Property-based tests for acoustic physics invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.acoustic.attenuation import PathLossModel, thorp_absorption_db_per_km
from repro.acoustic.geometry import Position
from repro.acoustic.sinr import LinkBudget, db_to_linear, linear_to_db
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
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=1.0, max_value=50_000.0),
    st.floats(min_value=1.0, max_value=50_000.0),
)
def test_path_loss_monotone(freq, d1, d2):
    model = PathLossModel(frequency_khz=freq)
    lo, hi = sorted((d1, d2))
    assert model.path_loss_db(lo) <= model.path_loss_db(hi) + 1e-9


@given(st.floats(min_value=0.01, max_value=1000.0))
def test_thorp_positive(freq):
    assert thorp_absorption_db_per_km(freq) > 0


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_db_linear_roundtrip(db):
    assert abs(linear_to_db(db_to_linear(db)) - db) < 1e-6


@given(
    st.floats(min_value=1.0, max_value=3000.0),
    st.lists(st.floats(min_value=1.0, max_value=3000.0), max_size=5),
)
def test_sinr_never_exceeds_snr(signal_d, interferer_ds):
    budget = LinkBudget()
    assert budget.sinr_db(signal_d, interferer_ds) <= budget.snr_db(signal_d) + 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=200.0), max_size=20))
def test_decode_decision_is_monotone_in_level(levels):
    # A louder arrival never fails alone where a quieter one decodes.
    channel = AcousticChannel(Simulator())
    flags = channel.undecodable(np.array(sorted(levels), dtype=np.float64))
    assert flags == sorted(flags, reverse=True)
