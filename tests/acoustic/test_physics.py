"""Unit tests for the acoustic channel physics."""


import numpy as np
import pytest

from repro.acoustic.attenuation import (
    PathLossModel,
    thorp_absorption_db_per_km,
)
from repro.acoustic.geometry import Position, bounding_box
from repro.acoustic.noise import AmbientNoiseModel
from repro.acoustic.sinr import LinkBudget
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from repro.phy.frame import data_frame
from repro.phy.modem import Arrival, RxOutcome


class TestGeometry:
    def test_distance(self):
        a = Position(0, 0, 0)
        b = Position(3, 4, 0)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert a.distance_to(b) == b.distance_to(a)

    def test_horizontal_distance_ignores_depth(self):
        a = Position(0, 0, 0)
        b = Position(3, 4, 1000)
        assert a.horizontal_distance_to(b) == pytest.approx(5.0)

    def test_clamped(self):
        p = Position(-5, 50, 200).clamped((0, 10), (0, 10), (0, 100))
        assert (p.x, p.y, p.z) == (0, 10, 100)

    def test_midpoint_and_translate(self):
        a = Position(0, 0, 0)
        b = Position(2, 4, 6)
        assert a.midpoint(b).as_tuple() == (1, 2, 3)
        assert a.translated(dz=5).z == 5

    def test_bounding_box(self):
        box = bounding_box([Position(0, 1, 2), Position(3, -1, 5)])
        assert box == ((0, 3), (-1, 1), (2, 5))

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])


class TestThorp:
    def test_absorption_at_10khz_is_about_1db_per_km(self):
        # Classic Thorp value: ~1.1 dB/km at 10 kHz.
        assert thorp_absorption_db_per_km(10.0) == pytest.approx(1.1, abs=0.3)

    def test_absorption_increases_with_frequency_in_band(self):
        values = [thorp_absorption_db_per_km(f) for f in (1.0, 5.0, 10.0, 50.0)]
        assert values == sorted(values)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            thorp_absorption_db_per_km(0.0)

    def test_path_loss_monotone_in_distance(self):
        model = PathLossModel()
        losses = [model.path_loss_db(d) for d in (10, 100, 1000, 10_000)]
        assert losses == sorted(losses)

    def test_short_range_clamped(self):
        model = PathLossModel()
        assert model.path_loss_db(0.001) == model.path_loss_db(1.0)

    def test_max_range_bisection(self):
        model = PathLossModel()
        sl = 160.0
        min_rl = model.received_level_db(sl, 2000.0)
        found = model.max_range_m(sl, min_rl)
        assert found == pytest.approx(2000.0, rel=1e-3)


class TestNoise:
    def test_band_level_exceeds_density(self):
        noise = AmbientNoiseModel()
        assert noise.band_level_db(10.0, 10_000) > noise.spectral_density_db(10.0)

    def test_wind_raises_noise(self):
        calm = AmbientNoiseModel(wind_mps=0.0).spectral_density_db(10.0)
        stormy = AmbientNoiseModel(wind_mps=20.0).spectral_density_db(10.0)
        assert stormy > calm

    def test_shipping_raises_low_frequency_noise(self):
        quiet = AmbientNoiseModel(shipping=0.0).spectral_density_db(0.3)
        busy = AmbientNoiseModel(shipping=1.0).spectral_density_db(0.3)
        assert busy > quiet

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            AmbientNoiseModel().band_level_db(10.0, 0.0)


class TestLinkBudget:
    def test_snr_decreases_with_distance(self):
        budget = LinkBudget()
        snrs = [budget.snr_db(d) for d in (100, 500, 1500, 3000)]
        assert snrs == sorted(snrs, reverse=True)

    def test_sinr_below_snr_with_interference(self):
        budget = LinkBudget()
        snr = budget.snr_db(1000.0)
        sinr = budget.sinr_db(1000.0, [1200.0])
        assert sinr < snr

    def test_equal_interferer_gives_near_zero_sinr(self):
        budget = LinkBudget()
        sinr = budget.sinr_db(1000.0, [1000.0])
        assert sinr < 0.1

    def test_communication_range_consistent(self):
        budget = LinkBudget()
        rng = budget.communication_range_m(min_snr_db=10.0)
        assert budget.snr_db(rng * 0.99) > 10.0
        assert budget.snr_db(rng * 1.01) < 10.0


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
    rx = channel.modem_of(1)
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
            rx = channel.modem_of(1)
            outcomes = []
            rx.on_receive = lambda frame, arrival: outcomes.append("ok")
            rx.on_rx_failure = lambda arrival, outcome: outcomes.append(outcome)
            sim.schedule(0.0, channel.modem_of(0).transmit, data_frame(0, 1, 0.0))
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
