"""Unit tests for the acoustic channel physics."""

import dataclasses
import math

import numpy as np
import pytest

from repro.acoustic import sinr
from repro.acoustic.geometry import Position
from repro.acoustic.sinr import LinkBudget
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from repro.phy.frame import data_frame
from repro.phy.modem import Arrival, RxOutcome
from tests.helpers import modem_of


class TestGeometry:
    def test_distance(self):
        a = Position(0, 0, 0)
        b = Position(3, 4, 0)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert a.distance_to(b) == b.distance_to(a)

    def test_clamped(self):
        p = Position(-5, 50, 200).clamped((0, 10), (0, 10), (0, 100))
        assert (p.x, p.y, p.z) == (0, 10, 100)

    def test_midpoint_and_translate(self):
        a = Position(0, 0, 0)
        b = Position(2, 4, 6)
        assert dataclasses.astuple(a.midpoint(b)) == (1, 2, 3)
        assert a.translated(dz=5).z == 5


#: Exact floats of the fixed link budget, recorded before its inputs
#: became constants; any change to an expression or its operand order
#: moves at least one of them.
PINNED_DECODE_THRESHOLD_DB = 23.988148806966223
PINNED_NOISE_LEVEL_DB = 86.08993739913632
PINNED_THORP_DB_PER_KM = 1.1870299387081567


def textbook_thorp_db_per_km(f_khz):
    """Thorp's absorption (Urick), f >= 0.4 kHz form, in dB/km."""
    f2 = f_khz * f_khz
    return 0.11 * f2 / (1 + f2) + 44 * f2 / (4100 + f2) + 2.75e-4 * f2 + 0.003


def textbook_wenz_band_level_db(f_khz, shipping, wind_mps, bandwidth_hz):
    """Wenz ambient noise (Stojanovic's fits), power-summed, over a band."""
    terms_db = (
        17 - 30 * math.log10(f_khz),
        40 + 20 * (shipping - 0.5) + 26 * math.log10(f_khz) - 60 * math.log10(f_khz + 0.03),
        50 + 7.5 * wind_mps**0.5 + 20 * math.log10(f_khz) - 40 * math.log10(f_khz + 0.4),
        -15 + 20 * math.log10(f_khz),
    )
    density_db = 10 * math.log10(sum(10 ** (db / 10) for db in terms_db))
    return density_db + 10 * math.log10(bandwidth_hz)


class TestPinnedConstants:
    def test_decode_threshold_is_pinned(self):
        assert AcousticChannel(Simulator()).decode_threshold_db == PINNED_DECODE_THRESHOLD_DB

    def test_noise_level_is_pinned(self):
        assert LinkBudget().noise_level_db() == PINNED_NOISE_LEVEL_DB
        assert sinr.NOISE_LEVEL_DB == PINNED_NOISE_LEVEL_DB

    def test_thorp_coefficient_is_pinned(self):
        assert sinr.ABSORPTION_DB_PER_KM == PINNED_THORP_DB_PER_KM

    def test_inputs_are_the_paper_operating_point(self):
        assert (
            sinr.CARRIER_KHZ, sinr.SPREADING, sinr.SOURCE_LEVEL_DB,
            sinr.BANDWIDTH_HZ, sinr.SHIPPING, sinr.WIND_MPS,
        ) == (10.0, 1.5, 160.0, 10_000.0, 0.5, 5.0)

    def test_link_budget_takes_no_parameters(self):
        assert not dataclasses.is_dataclass(LinkBudget)
        with pytest.raises(TypeError):
            LinkBudget(source_level_db=170.0)


class TestThorp:
    def test_absorption_at_10khz_is_about_1db_per_km(self):
        # Classic Thorp value: ~1.1 dB/km at 10 kHz.
        assert sinr.ABSORPTION_DB_PER_KM == pytest.approx(1.1, abs=0.3)

    def test_absorption_matches_the_textbook_formula(self):
        assert sinr.ABSORPTION_DB_PER_KM == pytest.approx(
            textbook_thorp_db_per_km(10.0), rel=1e-12
        )

    def test_path_loss_monotone_in_distance(self):
        levels = [LinkBudget.received_level_db(d) for d in (10, 100, 1000, 10_000)]
        assert levels == sorted(levels, reverse=True)

    def test_short_range_clamped(self):
        assert LinkBudget.received_level_db(0.001) == LinkBudget.received_level_db(1.0)
        assert LinkBudget.received_level_db(1.0) == pytest.approx(sinr.SOURCE_LEVEL_DB, abs=0.01)

    @pytest.mark.parametrize("distance_m", [1.0, 250.0, 1500.0, 3000.0, 10_000.0])
    def test_received_level_matches_the_textbook_formula(self, distance_m):
        loss = 1.5 * 10 * math.log10(distance_m) + distance_m / 1000 * textbook_thorp_db_per_km(10.0)
        assert LinkBudget.received_level_db(distance_m) == pytest.approx(160.0 - loss, abs=1e-9)

    def test_batch_levels_equal_the_scalar_ones_bit_for_bit(self):
        distances = np.array([0.5, 1.0, 123.456, 1500.0, 2999.9, 1e5])
        batch = LinkBudget.received_level_db_batch(distances)
        assert batch.tolist() == [LinkBudget.received_level_db(float(d)) for d in distances]


class TestNoise:
    def test_band_level_exceeds_density(self):
        density_db = sinr.NOISE_LEVEL_DB - 10 * math.log10(sinr.BANDWIDTH_HZ)
        assert sinr.NOISE_LEVEL_DB > density_db > 0.0

    def test_noise_level_matches_the_wenz_power_sum(self):
        assert sinr.NOISE_LEVEL_DB == pytest.approx(
            textbook_wenz_band_level_db(10.0, 0.5, 5.0, 10_000.0), rel=1e-12
        )

    def test_noise_power_is_the_noise_level_in_linear(self):
        assert sinr.NOISE_POWER == 10.0 ** (PINNED_NOISE_LEVEL_DB / 10.0)
        # A signal exactly at the noise floor has 0 dB SINR.
        assert LinkBudget().sinr_db_from_levels(sinr.NOISE_LEVEL_DB, ()) == pytest.approx(
            0.0, abs=1e-9
        )


class TestLinkBudget:
    def test_snr_decreases_with_distance(self):
        budget = LinkBudget()
        snrs = [budget.snr_db(d) for d in (100, 500, 1500, 3000)]
        assert snrs == sorted(snrs, reverse=True)

    def test_sinr_below_snr_with_interference(self):
        budget = LinkBudget()
        snr = budget.snr_db(1000.0)
        sinr_db = budget.sinr_db_from_levels(
            budget.received_level_db(1000.0), [budget.received_level_db(1200.0)]
        )
        assert sinr_db < snr

    def test_equal_interferer_gives_near_zero_sinr(self):
        budget = LinkBudget()
        level = budget.received_level_db(1000.0)
        assert budget.sinr_db_from_levels(level, [level]) < 0.1

    def test_interference_free_sinr_is_the_snr(self):
        budget = LinkBudget()
        for distance_m in (100.0, 1500.0, 3000.0):
            assert budget.sinr_db_from_levels(
                budget.received_level_db(distance_m), ()
            ) == pytest.approx(budget.snr_db(distance_m), abs=1e-9)


def _channel_pair(distance_m, **channel_kwargs):
    """A channel with two modems ``distance_m`` apart on the x axis."""
    sim = Simulator()
    channel = AcousticChannel(sim, **channel_kwargs)
    channel.create_modem(0, lambda: Position(0, 0, 0))
    channel.create_modem(1, lambda: Position(distance_m, 0, 0))
    return sim, channel


def _decode_alone(sinr_db):
    """Decode one interference-free arrival received at ``sinr_db``."""
    sim, channel = _channel_pair(1000.0)
    rx = modem_of(channel, 1)
    level = sinr_db + channel.link_budget.noise_level_db()
    outcomes = []
    rx.on_receive = lambda frame, arrival: outcomes.append(RxOutcome.OK)
    rx.on_rx_failure = lambda arrival, outcome: outcomes.append(outcome)
    frame = data_frame(0, 1, 0.0)
    end = frame.duration_s(channel.bitrate_bps)
    sim.schedule(0.0, rx.begin_arrival, Arrival(frame, 0, 0.0, end, level, 0.0))
    sim.run()
    return outcomes


class TestPerModels:
    """NS-3 UAN's Default PER model: the channel's one decode threshold."""

    def test_default_model_is_threshold(self):
        # All or nothing on one SINR threshold, calibrated so the decode
        # range is the communication range.
        channel = AcousticChannel(Simulator())
        budget = channel.link_budget
        assert channel.decode_threshold_db == budget.snr_db(channel.max_range_m) - 0.5
        threshold_level = channel.decode_threshold_db + budget.noise_level_db()
        assert channel.undecodable(
            np.array([threshold_level + 0.01, threshold_level - 0.01])
        ) == [False, True]

    def test_default_model_success_decision(self):
        threshold = AcousticChannel(Simulator()).decode_threshold_db
        assert _decode_alone(threshold + 5.0) == [RxOutcome.OK]
        assert _decode_alone(threshold - 5.0) == [RxOutcome.NOISE]

    @pytest.mark.parametrize("range_m", [500.0, 1000.0, 1500.0, 3000.0])
    def test_decode_range_is_the_configured_range(self, range_m):
        # The threshold follows max_range_m: a lone frame from the range's
        # edge decodes, one from twice as far arrives but cannot.
        for distance_m, expected in ((range_m, "ok"), (2 * range_m, RxOutcome.NOISE)):
            sim, channel = _channel_pair(
                distance_m, max_range_m=range_m, interference_range_factor=3.0
            )
            rx = modem_of(channel, 1)
            outcomes = []
            rx.on_receive = lambda frame, arrival: outcomes.append("ok")
            rx.on_rx_failure = lambda arrival, outcome: outcomes.append(outcome)
            sim.schedule(0.0, modem_of(channel, 0).transmit, data_frame(0, 1, 0.0))
            sim.run()
            assert outcomes == [expected]

    def test_margin_extends_lone_decodes_past_the_range(self):
        # The 0.5 dB margin moves the lone-frame decode edge from 1.5 km
        # to ~1.59 km (docs/channel_model.md): a sender at 1.55 km is no
        # neighbour, yet its lone frame decodes.
        _, channel = _channel_pair(1550.0, interference_range_factor=2.0)
        assert channel.neighbors_of(0) == ()
        levels = np.array([channel.link_budget.received_level_db(d) for d in (1550.0, 1650.0)])
        assert channel.undecodable(levels) == [False, True]

    @pytest.mark.parametrize("floor_db", [0.0, -3.0])
    def test_undecodable_agrees_with_the_scalar_sinr_at_the_pivot(self, floor_db):
        # Levels within a few ULP to a few nanodB of the decode pivot, at
        # the quietest declared noise floor: the vector estimate must hand
        # every one to the exact scalar SINR the modem would compute.
        channel = AcousticChannel(Simulator())
        channel.bound_noise_floor(floor_db)
        budget = channel.link_budget
        pivot = channel.decode_threshold_db + budget.noise_level_db() + floor_db
        levels = [pivot + k * 1e-9 for k in range(-20, 21)]
        levels += [float(x) for x in np.nextafter(pivot, [-np.inf, np.inf])]
        expected = [
            budget.sinr_db_from_levels(level, (), extra_noise_db=floor_db)
            < channel.decode_threshold_db
            for level in levels
        ]
        assert channel.undecodable(np.array(levels)) == expected
        assert True in expected and False in expected


class TestPropagation:
    def test_straight_line_delay(self):
        _, channel = _channel_pair(1500.0)
        assert channel.propagation_delay_s(0, 1) == 1500.0 / 1500.0
        _, channel = _channel_pair(1470.0, sound_speed_mps=1000.0)
        assert channel.propagation_delay_s(0, 1) == 1470.0 / 1000.0

    def test_nominal_delay(self):
        # Paper: 0.67 s/km at the nominal 1.5 km/s.
        _, channel = _channel_pair(1000.0)
        assert channel.propagation_delay_s(0, 1) == pytest.approx(0.667, abs=0.01)
