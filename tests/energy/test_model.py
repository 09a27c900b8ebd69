"""Unit tests for the energy model."""

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.energy.model import (
    ENTRY_W,
    IDLE_W,
    RX_W,
    TX_W,
    network_energy,
    node_energy_j,
)
from repro.mac.sfama import SFama
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_mac(sim, node_id=0, pos=None):
    channel = AcousticChannel(sim)
    node = Node(sim, node_id, pos or Position(0, 0, 100), channel)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    return SFama(sim, node, channel, timing)


def test_wattages():
    assert (TX_W, RX_W, IDLE_W, ENTRY_W) == (2.0, 0.8, 0.08, 0.0002)


def test_idle_node_consumes_idle_power():
    sim = Simulator()
    mac = build_mac(sim)
    energy = node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(IDLE_W * 100.0)


def test_tx_time_charged_at_tx_power():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.modem.stats.tx_time_s = 10.0
    energy = node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(TX_W * 10 + IDLE_W * 90)


def test_rx_time_charged_at_rx_power():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.modem.stats.rx_busy_time_s = 20.0
    energy = node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(RX_W * 20 + IDLE_W * 80)


def test_residency_is_capped_by_the_window():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.modem.stats.tx_time_s = 70.0
    mac.node.modem.stats.rx_busy_time_s = 50.0
    energy = node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(TX_W * 70 + RX_W * 30)


def test_entry_power_counts_neighbor_tables():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.neighbors.observe(1, 0.5)
    mac.node.neighbors.observe(2, 0.5)
    assert node_energy_j(mac, 100.0) == pytest.approx(IDLE_W * 100 + ENTRY_W * 2 * 100)


def test_energy_formula_is_exact():
    # Same expression and operand order as the model: bit-identical floats.
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.neighbors.observe(1, 0.5)
    mac.node.modem.stats.tx_time_s = 3.7
    mac.node.modem.stats.rx_busy_time_s = 11.3
    idle = 100.0 - 3.7 - 11.3
    expected = TX_W * 3.7 + RX_W * 11.3 + IDLE_W * idle + ENTRY_W * 1 * 100.0
    assert node_energy_j(mac, 100.0) == expected


def test_two_hop_tables_increase_energy():
    from repro.mac.csmac import CsMac

    sim = Simulator()
    channel = AcousticChannel(sim)
    node = Node(sim, 0, Position(0, 0, 100), channel)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    mac = CsMac(sim, node, channel, timing)
    before = node_energy_j(mac, 100.0)
    mac.two_hop.record_announcement(1, [(2, 0.5), (3, 0.4)])
    after = node_energy_j(mac, 100.0)
    assert after == pytest.approx(before + ENTRY_W * 2 * 100)


def test_invalid_duration():
    sim = Simulator()
    mac = build_mac(sim)
    with pytest.raises(ValueError):
        node_energy_j(mac, 0.0)


def test_network_energy_aggregates():
    sim = Simulator()
    macs = [build_mac(sim, node_id=i, pos=Position(i * 100.0, 0, 100)) for i in range(3)]
    report = network_energy(macs, 50.0)
    assert report.total_j == pytest.approx(3 * IDLE_W * 50)
    assert report.per_node_j == [node_energy_j(mac, 50.0) for mac in macs]
    assert report.average_power_mw == pytest.approx(3 * IDLE_W * 1000.0)
    assert len(report.per_node_j) == 3
