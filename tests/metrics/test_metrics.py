"""Unit tests for the metrics layer (paper Eqs. 2-4 and overhead)."""

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.energy.model import EnergyReport
from repro.experiments.engine import aggregate_relative
from repro.mac.sfama import SFama
from repro.mac.slots import make_slot_timing
from repro.metrics.efficiency import EfficiencyIndex, efficiency_index
from repro.metrics.execution import mean_delivery_delay_s
from repro.metrics.overhead import MEMORY_BITS_PER_ENTRY, network_overhead
from repro.metrics.throughput import ThroughputReport, network_throughput
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_macs(sim, n=3):
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    macs = []
    for i in range(n):
        node = Node(sim, i, Position(i * 200.0, 0, 100), channel)
        macs.append(SFama(sim, node, channel, timing))
    return macs


class TestThroughput:
    def test_eq3_sums_received_bits_over_t(self):
        sim = Simulator()
        macs = build_macs(sim)
        macs[0].stats.data_received_bits = 10_000
        macs[1].stats.opportunistic_received_bits = 5_000
        report = network_throughput(macs, duration_s=300.0)
        assert report.total_bits == 15_000
        assert report.kbps == pytest.approx(15_000 / 300.0 / 1000.0)

    def test_invalid_duration(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            network_throughput(build_macs(sim), 0.0)


class TestOverhead:
    def test_components_summed(self):
        sim = Simulator()
        macs = build_macs(sim, n=2)
        macs[0].stats.ctrl_sent_bits = 100
        macs[0].stats.piggyback_bits = 20
        macs[0].stats.maintenance_tx_bits = 30
        macs[1].stats.retransmitted_bits = 50
        macs[1].stats.computation_units = 10.0
        macs[1].node.neighbors.observe(0, 0.1)
        report = network_overhead(macs)
        assert report.control_bits == 100
        assert report.piggyback_bits == 20
        assert report.maintenance_bits == 30
        assert report.retransmitted_bits == 50
        assert report.computation_units == 10.0
        # S-FAMA requires no neighbour info: no memory charge (Sec. 5.3)
        assert report.memory_units == 0.0
        assert report.total_units == 210

    def test_memory_charged_for_neighbor_info_protocols(self):
        from repro.core.ewmac import EwMac
        from repro.acoustic.geometry import Position
        from repro.phy.channel import AcousticChannel
        from repro.net.node import Node
        from repro.mac.slots import make_slot_timing

        sim = Simulator()
        channel = AcousticChannel(sim)
        node = Node(sim, 0, Position(0, 0, 100), channel)
        timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
        mac = EwMac(sim, node, channel, timing)
        node.neighbors.observe(1, 0.5)
        report = network_overhead([mac])
        assert report.memory_units == MEMORY_BITS_PER_ENTRY

    def test_memory_and_energy_charge_one_entry_count(self):
        # One-hop plus two-hop entries: the overhead's memory term and the
        # energy model's maintenance term count the same tables.
        from repro.energy.model import ENTRY_W, IDLE_W, node_energy_j
        from repro.mac.base import neighbor_state_entries
        from repro.mac.csmac import CsMac

        sim = Simulator()
        channel = AcousticChannel(sim)
        node = Node(sim, 0, Position(0, 0, 100), channel)
        mac = CsMac(sim, node, channel, make_slot_timing(12_000.0, 64, 1500.0, 1500.0))
        node.neighbors.observe(1, 0.5)
        mac.two_hop.record_announcement(1, [(2, 0.5), (3, 0.4)])
        assert neighbor_state_entries(mac) == 3
        assert network_overhead([mac]).memory_units == 3 * MEMORY_BITS_PER_ENTRY
        assert node_energy_j(mac, 100.0) == pytest.approx(IDLE_W * 100 + ENTRY_W * 3 * 100)


    def test_ratio_vs_baseline(self):
        # Fig. 10 divides each protocol's overhead by S-FAMA's at each x.
        sim = Simulator()
        base_macs = build_macs(sim, n=1)
        base_macs[0].stats.ctrl_sent_bits = 100
        sim2 = Simulator()
        heavy_macs = build_macs(sim2, n=1)
        heavy_macs[0].stats.ctrl_sent_bits = 250
        grid = {
            (0.5, "S-FAMA"): [network_overhead(base_macs)],
            (0.5, "EW-MAC"): [network_overhead(heavy_macs)],
        }
        series = aggregate_relative(
            grid, [0.5], ("S-FAMA", "EW-MAC"), lambda r: r.total_units
        )
        assert series == {"S-FAMA": [1.0], "EW-MAC": [pytest.approx(2.5)]}

    def test_zero_baseline_rejected(self):
        report = network_overhead(build_macs(Simulator(), n=1))
        assert report.total_units == 0.0
        grid = {(0.5, "S-FAMA"): [report], (0.5, "EW-MAC"): [report]}
        with pytest.raises(ValueError, match="'S-FAMA' averages 0.0 at x=0.5"):
            aggregate_relative(grid, [0.5], ("S-FAMA", "EW-MAC"), lambda r: r.total_units)


class TestEfficiency:
    def test_eq4_value(self):
        index = EfficiencyIndex(throughput_kbps=0.3, power_mw=150.0)
        assert index.value == pytest.approx(0.002)

    def test_relative_to_baseline(self):
        # Fig. 11 plots Eq. (4) with S-FAMA normalized to 1.
        grid = {
            (0.3, "S-FAMA"): [EfficiencyIndex(0.29, 100.0)],
            (0.3, "EW-MAC"): [EfficiencyIndex(0.37, 95.0)],
        }
        series = aggregate_relative(
            grid, [0.3], ("S-FAMA", "EW-MAC"), lambda e: e.value
        )
        assert series["S-FAMA"] == [1.0]
        assert series["EW-MAC"][0] == pytest.approx((0.37 / 95.0) / (0.29 / 100.0))
        assert series["EW-MAC"][0] > 1.0

    def test_zero_baseline_rejected(self):
        grid = {
            (0.3, "S-FAMA"): [EfficiencyIndex(0.0, 100.0)],
            (0.3, "EW-MAC"): [EfficiencyIndex(0.3, 100.0)],
        }
        with pytest.raises(ValueError, match="'S-FAMA' averages 0.0 at x=0.3"):
            aggregate_relative(grid, [0.3], ("S-FAMA", "EW-MAC"), lambda e: e.value)

    def test_zero_power_is_zero_efficiency(self):
        assert EfficiencyIndex(0.5, 0.0).value == 0.0

    def test_from_reports(self):
        throughput = ThroughputReport(total_bits=90_000, duration_s=300.0, per_node_bits=[])
        energy = EnergyReport(total_j=30.0, duration_s=300.0, per_node_j=[1.0])
        index = efficiency_index(throughput, energy)
        assert index.throughput_kbps == pytest.approx(0.3)
        assert index.power_mw == pytest.approx(100.0)


class TestDelay:
    def test_mean_delivery_delay(self):
        sim = Simulator()
        macs = build_macs(sim, n=2)
        macs[0].node.app_stats.delivery_delay_total_s = 10.0
        macs[0].node.app_stats.sent = 2
        macs[1].node.app_stats.delivery_delay_total_s = 5.0
        macs[1].node.app_stats.sent = 3
        nodes = [m.node for m in macs]
        assert mean_delivery_delay_s(nodes) == pytest.approx(3.0)

    def test_no_sends_is_zero(self):
        sim = Simulator()
        nodes = [m.node for m in build_macs(sim, n=1)]
        assert mean_delivery_delay_s(nodes) == 0.0
