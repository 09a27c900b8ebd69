"""Unit tests for the energy model."""

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.energy.model import EnergyReport, PowerModel, network_energy
from repro.mac.sfama import SFama
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_mac(sim, node_id=0, pos=None):
    channel = AcousticChannel(sim)
    node = Node(sim, node_id, pos or Position(0, 0, 100), channel)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    return SFama(sim, node, channel, timing)


def test_idle_node_consumes_idle_power():
    sim = Simulator()
    mac = build_mac(sim)
    power = PowerModel(tx_w=2.0, rx_w=0.8, idle_w=0.08, entry_w=0.0)
    energy = power.node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(0.08 * 100.0)


def test_tx_time_charged_at_tx_power():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.modem.stats.tx_time_s = 10.0
    power = PowerModel(tx_w=2.0, rx_w=0.8, idle_w=0.08, entry_w=0.0)
    energy = power.node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(2.0 * 10 + 0.08 * 90)


def test_rx_time_charged_at_rx_power():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.modem.stats.rx_busy_time_s = 20.0
    power = PowerModel(tx_w=2.0, rx_w=0.8, idle_w=0.08, entry_w=0.0)
    energy = power.node_energy_j(mac, duration_s=100.0)
    assert energy == pytest.approx(0.8 * 20 + 0.08 * 80)


def test_entry_power_counts_neighbor_tables():
    sim = Simulator()
    mac = build_mac(sim)
    mac.node.neighbors.observe(1, 0.5)
    mac.node.neighbors.observe(2, 0.5)
    power = PowerModel(tx_w=0, rx_w=0, idle_w=0, entry_w=0.001)
    assert power.node_energy_j(mac, 100.0) == pytest.approx(0.001 * 2 * 100)


def test_two_hop_tables_increase_energy():
    from repro.mac.csmac import CsMac

    sim = Simulator()
    channel = AcousticChannel(sim)
    node = Node(sim, 0, Position(0, 0, 100), channel)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    mac = CsMac(sim, node, channel, timing)
    power = PowerModel(tx_w=0, rx_w=0, idle_w=0, entry_w=0.001)
    before = power.node_energy_j(mac, 100.0)
    mac.two_hop.record_announcement(1, [(2, 0.5), (3, 0.4)])
    after = power.node_energy_j(mac, 100.0)
    assert after == pytest.approx(before + 0.001 * 2 * 100)


def test_invalid_duration():
    sim = Simulator()
    mac = build_mac(sim)
    with pytest.raises(ValueError):
        PowerModel().node_energy_j(mac, 0.0)


def test_network_energy_aggregates():
    sim = Simulator()
    macs = [build_mac(sim, node_id=i, pos=Position(i * 100.0, 0, 100)) for i in range(3)]
    power = PowerModel(tx_w=0, rx_w=0, idle_w=0.1, entry_w=0.0)
    report = network_energy(macs, 50.0, power)
    assert report.total_j == pytest.approx(3 * 0.1 * 50)
    assert report.average_power_mw == pytest.approx(300.0)
    assert report.mean_node_power_mw == pytest.approx(100.0)
    assert len(report.per_node_j) == 3


def test_empty_report_mean():
    report = EnergyReport(total_j=0.0, duration_s=10.0, per_node_j=[])
    assert report.mean_node_power_mw == 0.0
