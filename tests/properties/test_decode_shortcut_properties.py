"""Soundness of settling undecodable arrivals without a decode.

The channel routes an arrival past the decode when its interference-free
SINR under the quietest reachable noise floor is below the decode
threshold.
That is sound only because SINR never rises above that value: not with
interferers (they add power), not with a louder floor.  And the vectorized
classification must agree exactly with the scalar expression it stands in
for, including right at the decode pivot.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.acoustic.geometry import Position
from repro.acoustic.sinr import LinkBudget
from repro.des.simulator import Simulator
from repro.phy.channel import DECIDE_BAND_DB, AcousticChannel
from repro.phy.frame import data_frame
from repro.phy.modem import Arrival

BUDGET = LinkBudget()
levels_db = st.floats(min_value=0.0, max_value=200.0)
interferers_db = st.lists(levels_db, max_size=6)
# 0.0 takes its own arithmetic path (no floor multiply): draw it often.
extra_noise_db = st.one_of(st.just(0.0), st.floats(min_value=-20.0, max_value=20.0))


@given(levels_db, interferers_db, extra_noise_db)
def test_sinr_never_exceeds_snr_alone(level, interferers, extra):
    alone = BUDGET.sinr_db_from_levels(level, (), extra_noise_db=extra)
    assert BUDGET.sinr_db_from_levels(level, interferers, extra_noise_db=extra) <= alone


@given(levels_db, interferers_db, extra_noise_db, extra_noise_db)
def test_sinr_is_non_increasing_in_extra_noise(level, interferers, a, b):
    quiet, loud = sorted((a, b))
    assert BUDGET.sinr_db_from_levels(
        level, interferers, extra_noise_db=loud
    ) <= BUDGET.sinr_db_from_levels(level, interferers, extra_noise_db=quiet)


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` ULPs (down for negative ``k``)."""
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


def _channel(floor_db: float) -> AcousticChannel:
    channel = AcousticChannel(Simulator(), interference_range_factor=2.0)
    channel.bound_noise_floor(floor_db)
    return channel


def _exact(channel: AcousticChannel, levels, floor_db: float):
    return [
        channel.link_budget.sinr_db_from_levels(level, (), extra_noise_db=floor_db)
        < channel.decode_threshold_db
        for level in levels
    ]


floors_db = st.one_of(st.just(0.0), st.floats(min_value=-12.0, max_value=0.0))


@given(floors_db, st.lists(levels_db, max_size=40))
def test_mask_matches_exact_scalar_on_random_levels(floor_db, levels):
    channel = _channel(floor_db)
    assert channel.undecodable(np.array(levels, dtype=np.float64)) == _exact(
        channel, levels, floor_db
    )


@given(floors_db, st.integers(min_value=-64, max_value=64))
def test_mask_matches_exact_scalar_at_the_pivot(floor_db, k):
    channel = _channel(floor_db)
    pivot = channel.decode_threshold_db + channel.link_budget.noise_level_db() + floor_db
    levels = [
        _ulps(pivot, k),
        _ulps(pivot + DECIDE_BAND_DB, k),
        _ulps(pivot - DECIDE_BAND_DB, k),
        _ulps(pivot, 1000 * k),
    ]
    assert channel.undecodable(np.array(levels)) == _exact(channel, levels, floor_db)


@given(levels_db)
def test_classification_agrees_with_the_modem_decode(level):
    # The channel's classifier and the modem's decode are separate
    # comparisons with the one threshold: a lone arrival decodes exactly
    # when the classifier does not rule it out.
    sim = Simulator()
    channel = AcousticChannel(sim)
    rx = channel.create_modem(0, lambda: Position(0.0, 0.0, 0.0))
    decoded = []
    rx.on_receive = lambda frame, arrival: decoded.append(True)
    rx.on_rx_failure = lambda arrival, outcome: decoded.append(False)
    frame = data_frame(1, 0, 0.0)
    end = frame.duration_s(channel.bitrate_bps)
    sim.schedule(0.0, rx.begin_arrival, Arrival(frame, 1, 0.0, end, level, 0.0))
    sim.run()
    assert decoded == [not channel.undecodable(np.array([level]))[0]]


def test_pivot_neighbourhood_holds_both_answers():
    # The pivot cases above are only meaningful if the flag flips there.
    channel = _channel(0.0)
    pivot = channel.decode_threshold_db + channel.link_budget.noise_level_db()
    flags = channel.undecodable(np.array([pivot - 1e-3, pivot + 1e-3]))
    assert flags == [True, False]
