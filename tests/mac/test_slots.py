"""Unit tests for the slot arithmetic (paper Eqs. 5-6)."""

import math

import pytest

from repro.mac.slots import SlotTiming, make_slot_timing


@pytest.fixture
def table2() -> SlotTiming:
    return make_slot_timing(12_000.0, 64, 1500.0, 1500.0)


def test_table2_slot_duration(table2):
    # |ts| = omega + tau_max = 64/12000 + 1.0
    assert table2.omega_s == pytest.approx(64 / 12_000)
    assert table2.tau_max_s == pytest.approx(1.0)
    assert table2.slot_s == pytest.approx(1.0 + 64 / 12_000)


def test_invalid_timing():
    with pytest.raises(ValueError):
        SlotTiming(omega_s=0.0, tau_max_s=1.0)
    with pytest.raises(ValueError):
        SlotTiming(omega_s=0.01, tau_max_s=-1.0)


def test_slot_grid_navigation(table2):
    assert table2.slot_start(0) == 0.0
    assert table2.slot_index(0.0) == 0
    assert table2.slot_index(table2.slot_s * 3 + 0.1) == 3
    # exact boundary belongs to the starting slot
    assert table2.slot_index(table2.slot_s * 2) == 2
    assert table2.next_slot_index(table2.slot_s * 2) == 2
    assert table2.next_slot_index(table2.slot_s * 2 + 1e-6) == 3
    assert table2.slot_start(table2.next_slot_index(0.5)) == pytest.approx(table2.slot_s)


def test_time_into_slot(table2):
    t = table2.slot_s * 4 + 0.25
    assert table2.time_into_slot(t) == pytest.approx(0.25)


def test_negative_times_rejected(table2):
    with pytest.raises(ValueError):
        table2.slot_index(-0.1)
    with pytest.raises(ValueError):
        table2.slot_start(-1)


class TestEquation5:
    """ts(Ack) = ts(Data) + ceil((TD + tau_sr) / |ts|)."""

    def test_small_data_nearby_receiver_is_one_slot(self, table2):
        # 1024 bits -> 0.085 s; tau 0.1 s; sum < |ts| -> 1 slot
        assert table2.ack_slot(10, 1024 / 12_000, 0.1) == 11

    def test_max_data_max_delay_is_two_slots(self, table2):
        # 4096 bits -> 0.341 s; tau 1.0 -> 1.341 / 1.005 -> ceil = 2
        assert table2.ack_slot(10, 4096 / 12_000, 1.0) == 12

    def test_matches_formula_exactly(self, table2):
        for bits in (1024, 2048, 4096):
            for tau in (0.05, 0.4, 0.9, 1.0):
                td = bits / 12_000
                expected = 10 + max(1, math.ceil((td + tau) / table2.slot_s - 1e-9))
                assert table2.ack_slot(10, td, tau) == expected

    def test_ack_slot_start_not_before_data_arrival_end(self, table2):
        """Eq. 5 invariant: the receiver has finished receiving by ts(Ack)."""
        for bits in (1024, 2048, 4096):
            for tau in (0.1, 0.5, 1.0):
                td = bits / 12_000
                data_slot = 7
                ack = table2.ack_slot(data_slot, td, tau)
                arrival_end = table2.slot_start(data_slot) + tau + td
                assert table2.slot_start(ack) >= arrival_end - 1e-9

    def test_invalid_inputs(self, table2):
        with pytest.raises(ValueError):
            table2.data_slots(0.0, 0.5)
        with pytest.raises(ValueError):
            table2.data_slots(0.1, -0.5)


class TestEquation6:
    """t(EXData) = ts(Ack_jk) * |ts| + omega - tau_ij."""

    def test_exdata_arrives_as_ack_ends(self, table2):
        ack_slot = 12
        tau_ij = 0.3
        start = table2.exdata_start_time(ack_slot, tau_ij)
        arrival = start + tau_ij
        ack_tx_end = table2.slot_start(ack_slot) + table2.omega_s
        assert arrival == pytest.approx(ack_tx_end)

    def test_closer_askers_send_later(self, table2):
        near = table2.exdata_start_time(10, 0.1)
        far = table2.exdata_start_time(10, 0.9)
        assert far < near

    def test_negative_tau_rejected(self, table2):
        with pytest.raises(ValueError):
            table2.exdata_start_time(10, -0.1)


class TestExchangeSpan:
    def test_ack_end_covers_ack_propagation(self, table2):
        # RTS at t, CTS t+1, Data t+2, Ack per Eq. 5.
        ack_slot = table2.ack_slot(7, 2048 / 12_000, 0.5)
        assert table2.ack_end_time(ack_slot) == (
            table2.slot_start(ack_slot) + table2.omega_s + table2.tau_max_s
        )

    def test_ack_end_is_the_next_slot_boundary(self, table2):
        # |ts| = omega + tau_max: the exchange is over when the slot after
        # the Ack's begins.
        for ack_slot in (0, 1, 7, 1000):
            assert table2.ack_end_time(ack_slot) == pytest.approx(
                table2.slot_start(ack_slot + 1), abs=1e-9
            )
