"""Unit tests for the experiment configuration and scenario assembly."""

import dataclasses

import pytest

from repro.experiments.config import TABLE2, ScenarioConfig, table2_config
from repro.experiments.scenario import Scenario, run_scenario
from repro.phy.frame import CONTROL_PACKET_BITS
from tests.helpers import is_connected, unforwarded_scenario


class TestConfig:
    def test_defaults_match_table2(self):
        config = table2_config()
        channel = Scenario(config).channel
        assert config.n_sensors == TABLE2["number_of_sensors"] == 60
        assert channel.bitrate_bps == TABLE2["bandwidth_kbps"] * 1000
        assert channel.max_range_m == TABLE2["communication_range_km"] * 1000
        assert channel.sound_speed_mps == TABLE2["acoustic_speed_km_s"] * 1000
        assert config.sim_time_s == TABLE2["simulation_time_s"]
        assert CONTROL_PACKET_BITS == TABLE2["control_packet_bits"]
        assert config.data_packet_bits == TABLE2["data_packet_bits_default"]
        lo, hi = TABLE2["data_packet_bits_range"]
        assert lo <= config.data_packet_bits <= hi
        # 1000 km^3 deployment region
        assert (config.side_m / 1000.0) ** 3 == pytest.approx(
            TABLE2["deployment_area_km3"]
        )

    def test_derived_slot_parameters(self):
        timing = Scenario(table2_config()).timing
        assert timing.tau_max_s == pytest.approx(1.0)
        assert timing.omega_s == pytest.approx(64 / 12_000)
        assert timing.slot_s == pytest.approx(1.0 + 64 / 12_000)

    def test_slots_channel_and_deployment_share_the_link(self):
        scenario = Scenario(table2_config(n_sensors=20))
        channel, timing = scenario.channel, scenario.timing
        assert timing.omega_s == CONTROL_PACKET_BITS / channel.bitrate_bps
        assert timing.tau_max_s == channel.max_range_m / channel.sound_speed_mps
        assert scenario.deployment.config.comm_range_m == channel.max_range_m

    def test_arrivals_travel_at_the_slot_sound_speed(self):
        # Slots are sized for the channel's speed; the channel must
        # propagate at that same speed, or a neighbour's delay can exceed
        # the tau_max every slot is built from.
        scenario = Scenario(table2_config())
        channel, timing = scenario.channel, scenario.timing
        assert timing.tau_max_s == 1.0
        pairs = [
            (node.node_id, other)
            for node in scenario.nodes
            for other in channel.neighbors_of(node.node_id)
        ]
        assert pairs
        for a, b in pairs:
            assert channel.propagation_delay_s(a, b) == channel.distance_m(a, b) / 1500.0
            assert channel.propagation_delay_s(a, b) <= timing.tau_max_s

    def test_with_overrides(self):
        config = table2_config(offered_load_kbps=0.9, n_sensors=80)
        assert config.offered_load_kbps == 0.9
        assert config.n_sensors == 80
        assert config.sim_time_s == 300.0  # untouched default

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_sensors=0)
        with pytest.raises(ValueError):
            ScenarioConfig(data_packet_bits=0)
        with pytest.raises(ValueError):
            ScenarioConfig(sim_time_s=-1.0)


class TestScenario:
    def _quick(self, **kw):
        defaults = dict(n_sensors=15, sim_time_s=40.0, offered_load_kbps=0.6, seed=3)
        defaults.update(kw)
        return table2_config(**defaults)

    def test_builds_all_components(self):
        scenario = Scenario(self._quick())
        assert len(scenario.nodes) == 16  # 15 sensors + 1 sink
        assert len(scenario.macs) == 16
        assert scenario.nodes[0].is_sink
        assert is_connected(scenario.deployment)

    @pytest.mark.parametrize("protocol", ["S-FAMA", "ROPA", "CS-MAC", "EW-MAC"])
    def test_every_protocol_runs_and_carries_traffic(self, protocol):
        result = run_scenario(self._quick(protocol=protocol))
        assert result.protocol == protocol
        assert result.throughput_kbps > 0.0
        assert result.power_mw > 0.0
        assert result.overhead_units > 0.0
        assert result.offered_bits > 0

    def test_same_seed_is_reproducible(self):
        a = run_scenario(self._quick())
        b = run_scenario(self._quick())
        assert a.throughput_kbps == b.throughput_kbps
        assert a.energy.total_j == b.energy.total_j
        assert a.collisions == b.collisions

    def test_delivery_ratio_is_carried_over_offered_bits(self):
        result = run_scenario(self._quick())
        assert result.offered_bits > 0
        assert result.delivery_ratio == (
            result.throughput.total_bits / result.offered_bits
        )
        assert 0.0 < result.delivery_ratio <= 1.0
        assert dataclasses.replace(result, offered_bits=0).delivery_ratio == 0.0

    def test_different_seeds_differ(self):
        a = run_scenario(self._quick(seed=1))
        b = run_scenario(self._quick(seed=2))
        assert a.throughput_kbps != b.throughput_kbps

    def test_forwarding_relays_toward_sink(self):
        result = run_scenario(self._quick(sim_time_s=80.0))
        scenario_sink_delivered = result.throughput.total_bits
        assert scenario_sink_delivered > 0

    def test_forwarding_adds_receptions(self):
        with_fw = run_scenario(self._quick(sim_time_s=80.0))
        without_fw = unforwarded_scenario(self._quick(sim_time_s=80.0)).run_steady_state()
        # multi-hop relaying multiplies MAC-level receptions (Eq. 2)
        assert with_fw.throughput.total_bits >= without_fw.throughput.total_bits

    def test_mobility_can_be_disabled(self):
        scenario = Scenario(self._quick(mobility=False))
        assert scenario.mobility is None

    def test_batch_mode_records_execution(self):
        result = Scenario(self._quick()).run_batch(n_packets=5, max_time_s=400.0)
        assert result.execution is not None
        assert result.execution.injected == 5
        if not result.execution.timed_out:
            assert result.execution.drain_time_s > 0
            assert result.execution.completed >= 5

    def test_scenario_cannot_start_twice(self):
        scenario = Scenario(self._quick())
        scenario.run_steady_state()
        with pytest.raises(RuntimeError):
            scenario.run_steady_state()
