"""Unit tests for the half-duplex modem and the broadcast channel."""

import numpy as np
import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame, data_frame
from repro.phy.modem import RxOutcome


def build_pair(sim, distance_m=1500.0, **channel_kwargs):
    channel = AcousticChannel(sim, **channel_kwargs)
    pos_a, pos_b = Position(0, 0, 0), Position(distance_m, 0, 0)
    a = channel.create_modem(0, lambda: pos_a)
    b = channel.create_modem(1, lambda: pos_b)
    return channel, a, b


class TestDelivery:
    def test_frame_arrives_after_propagation_delay(self):
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=1500.0)
        received = []
        b.on_receive = lambda f, arr: received.append((sim.now, f, arr))
        frame = control_frame(FrameType.RTS, 0, 1, timestamp=0.0)
        sim.schedule(0.0, a.transmit, frame)
        sim.run()
        assert len(received) == 1
        time, rx_frame, arrival = received[0]
        # 1500 m at 1500 m/s = 1.0 s, plus 64/12000 s on-air time.
        assert time == pytest.approx(1.0 + 64 / 12_000)
        assert arrival.delay_s == pytest.approx(1.0)
        assert rx_frame.uid == frame.uid

    def test_out_of_range_not_delivered(self):
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=5000.0)
        received = []
        b.on_receive = lambda f, arr: received.append(f)
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run()
        assert received == []
        assert channel.stats.out_of_range_skips == 1

    def test_sender_does_not_hear_itself(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        a.on_receive = lambda f, arr: pytest.fail("sender heard itself")
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run()

    def test_timestamp_stamped_at_transmission(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        seen = []
        b.on_receive = lambda f, arr: seen.append(arr.start - f.timestamp)
        frame = control_frame(FrameType.RTS, 0, 1, timestamp=-99.0)
        sim.schedule(2.5, a.transmit, frame)
        sim.run()
        # measured delay == true propagation delay, regardless of the stale stamp
        assert seen[0] == pytest.approx(1.0)


class TestHalfDuplex:
    def test_reception_fails_while_transmitting(self):
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=1500.0)
        failures = []
        b.on_rx_failure = lambda arr, out: failures.append(out)
        b.on_receive = lambda f, arr: pytest.fail("should not decode")
        # a's data arrives at b during [1.0, 1.17]; b transmits at 1.05.
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=2048))
        sim.schedule(1.05, b.transmit, control_frame(FrameType.RTS, 1, 0, timestamp=0.0))
        sim.run()
        assert failures == [RxOutcome.HALF_DUPLEX]
        assert b.stats.rx_half_duplex == 1

    def test_transmit_while_transmitting_raises(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=4096))
        def second():
            with pytest.raises(RuntimeError):
                a.transmit(control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.schedule(0.1, second)
        sim.run()

    def test_transmitting_property(self):
        sim = Simulator()
        channel, a, b = build_pair(sim)
        assert not a.transmitting
        checks = []
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0, size_bits=2048))
        sim.schedule(0.1, lambda: checks.append(a.transmitting))
        sim.schedule(0.2, lambda: checks.append(a.transmitting))
        sim.run()
        assert checks == [True, False]  # 2048/12000 = 0.171 s


class TestCollision:
    def test_overlapping_equal_power_arrivals_collide(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        positions = {
            0: Position(0, 0, 0),
            1: Position(1000, 0, 0),
            2: Position(2000, 0, 0),
        }
        modems = {
            nid: channel.create_modem(nid, lambda p=pos: p)
            for nid, pos in positions.items()
        }
        outcomes = []
        modems[1].on_rx_failure = lambda arr, out: outcomes.append(out)
        modems[1].on_receive = lambda f, arr: outcomes.append("ok")
        # both at 1000 m from node 1: identical delay, full overlap
        sim.schedule(0.0, modems[0].transmit, data_frame(0, 1, 0.0, size_bits=2048))
        sim.schedule(0.0, modems[2].transmit, data_frame(2, 1, 0.0, size_bits=2048))
        sim.run()
        assert outcomes == [RxOutcome.COLLISION, RxOutcome.COLLISION]
        assert modems[1].stats.rx_collision == 2

    def test_non_overlapping_arrivals_both_decode(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        positions = {
            0: Position(0, 0, 0),
            1: Position(750, 0, 0),
            2: Position(2000, 0, 0),
        }
        modems = {
            nid: channel.create_modem(nid, lambda p=pos: p)
            for nid, pos in positions.items()
        }
        received = []
        modems[1].on_receive = lambda f, arr: received.append(f.src)
        # delays to node 1: 0.5 s and ~0.83 s; control frames are 5.3 ms,
        # so the arrivals do not overlap.
        sim.schedule(0.0, modems[0].transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.schedule(0.0, modems[2].transmit, control_frame(FrameType.RTS, 2, 1, timestamp=0.0))
        sim.run()
        assert sorted(received) == [0, 2]


class TestChannelQueries:
    def test_neighbors_and_delay(self):
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=1200.0)
        assert channel.neighbors_of(0) == (1,)
        assert channel.distance_m(0, 1) == pytest.approx(1200.0)
        assert channel.propagation_delay_s(0, 1) == pytest.approx(0.8)

    def test_duplicate_node_id_rejected(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        channel.create_modem(0, lambda: Position(0, 0, 0))
        with pytest.raises(ValueError):
            channel.create_modem(0, lambda: Position(1, 1, 1))

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AcousticChannel(sim, bitrate_bps=0.0)
        with pytest.raises(ValueError):
            AcousticChannel(sim, max_range_m=-1.0)
        with pytest.raises(ValueError):
            AcousticChannel(sim, interference_range_factor=0.5)
        with pytest.raises(ValueError):
            AcousticChannel(sim, sound_speed_mps=0.0)

    def test_interference_range_delivers_but_does_not_decode(self):
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=2500.0, interference_range_factor=2.0)
        outcomes = []
        b.on_receive = lambda f, arr: outcomes.append("ok")
        b.on_rx_failure = lambda arr, out: outcomes.append(out)
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0))
        sim.run()
        # Beyond decode range (threshold calibrated to 1.5 km) the lone
        # frame fails as noise, but the energy was delivered (it can jam).
        assert outcomes == [RxOutcome.NOISE]


def _line(sim, xs, **channel_kwargs):
    """A channel with one modem per x coordinate, on the x axis."""
    channel = AcousticChannel(sim, **channel_kwargs)
    modems = [
        channel.create_modem(nid, lambda p=Position(x, 0, 0): p)
        for nid, x in enumerate(xs)
    ]
    return channel, modems


def _record(modem):
    """Every decode (``"ok"``) and failure outcome at ``modem``, in order."""
    outcomes = []
    modem.on_receive = lambda f, arr: outcomes.append("ok")
    modem.on_rx_failure = lambda arr, out: outcomes.append(out)
    return outcomes


class TestThresholdDecode:
    """A decode is ``SINR >= decode_threshold_db``: no fade, no draw."""

    def test_received_level_does_not_vary_over_time(self):
        # No fading: the same link arrives at the same level whenever it
        # is used, and that level is the link budget's.
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=1200.0)
        levels = []
        b.on_receive = lambda f, arr: levels.append(arr.level_db)
        for t in (0.0, 7.0, 500.0):
            sim.schedule(t, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=t))
        sim.run()
        assert levels == [channel.link_budget.received_level_db(1200.0)] * 3

    @pytest.mark.parametrize("seed", [0, 7, 2013])
    def test_decode_outcomes_do_not_depend_on_the_seed(self, seed, monkeypatch):
        # The receiver at 0 hears a lone frame from the range's edge, one
        # from past it and then both overlapping; the channel draws from no
        # random stream, so every seed gives the same outcomes.
        sim = Simulator(seed=seed)
        monkeypatch.setattr(
            sim.streams, "get", lambda name: pytest.fail(f"drew from {name}")
        )
        _, modems = _line(sim, [0.0, 1500.0, -2500.0], interference_range_factor=2.0)
        outcomes = _record(modems[0])
        sim.schedule(0.0, modems[1].transmit, data_frame(1, 0, 0.0))
        sim.schedule(10.0, modems[2].transmit, data_frame(2, 0, 10.0))
        # Both reach node 0 at t = 21.0 s and overlap for the whole frame.
        sim.schedule(20.0, modems[1].transmit, data_frame(1, 0, 20.0))
        sim.schedule(20.0 - (2500.0 - 1500.0) / 1500.0, modems[2].transmit,
                     data_frame(2, 0, 20.0))
        sim.run()
        assert outcomes == [
            "ok",
            RxOutcome.NOISE,
            RxOutcome.COLLISION,
            RxOutcome.COLLISION,
        ]

    def test_out_of_range_interferer_jams_a_marginal_frame(self):
        # A frame from the range's edge decodes with 0.5 dB to spare; a
        # sender past the decode range that overlaps it costs more than
        # that, so the frame is lost even though the jammer never decodes.
        sim = Simulator()
        channel, modems = _line(sim, [0.0, 1500.0, -2500.0], interference_range_factor=2.0)
        assert channel.neighbors_of(0) == (1,)
        outcomes = _record(modems[0])
        sim.schedule(0.0, modems[2].transmit, data_frame(2, 0, 0.0))
        sim.schedule((2500.0 - 1500.0) / 1500.0, modems[1].transmit, data_frame(1, 0, 0.0))
        sim.run()
        assert outcomes == [RxOutcome.COLLISION, RxOutcome.COLLISION]
        assert modems[0].stats.rx_ok == 0

    def test_much_stronger_arrival_survives_an_overlap(self):
        # Overlap is not a collision by itself: a sender 20 m away clears
        # the threshold over one 1.5 km away, which is lost.
        sim = Simulator()
        channel, modems = _line(sim, [0.0, 20.0, -1500.0])
        budget = channel.link_budget
        strong = budget.sinr_db_from_levels(
            budget.received_level_db(20.0), [budget.received_level_db(1500.0)]
        )
        assert strong >= channel.decode_threshold_db
        received = []
        modems[0].on_receive = lambda f, arr: received.append(f.src)
        failures = []
        modems[0].on_rx_failure = lambda arr, out: failures.append((arr.src, out))
        sim.schedule(0.0, modems[2].transmit, data_frame(2, 0, 0.0))
        sim.schedule(1.0 - 20.0 / 1500.0, modems[1].transmit, data_frame(1, 0, 0.0))
        sim.run()
        assert received == [1]
        assert failures == [(2, RxOutcome.COLLISION)]

    @pytest.mark.parametrize("above, expected", [(False, "ok"), (True, RxOutcome.NOISE)])
    def test_decide_is_at_or_above_the_threshold(self, above, expected):
        # Pin the modem's threshold to the exact SINR of a lone 1.2 km
        # frame: at equality it decodes, one ULP above it fails.
        sim = Simulator()
        channel, a, b = build_pair(sim, distance_m=1200.0)
        budget = channel.link_budget
        sinr = budget.sinr_db_from_levels(budget.received_level_db(1200.0), ())
        b._decode_threshold_db = np.nextafter(sinr, np.inf) if above else sinr
        outcomes = _record(b)
        sim.schedule(0.0, a.transmit, data_frame(0, 1, 0.0))
        sim.run()
        assert outcomes == [expected]
