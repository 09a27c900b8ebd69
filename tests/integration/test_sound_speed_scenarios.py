"""Integration: the scenario's one sound speed drives full protocol runs.

A scenario sizes its slots for its sound speed (``tau_max = range /
speed``), and the channel must propagate at that same speed.  Each MAC
then learns, from the timestamps of the frames it decodes (paper Sec.
4.3), the delays of that speed.  The runs here swap the scenario's speed
constant for a slower one, so a layer stuck at the nominal 1.5 km/s
would show up in every learned delay.
"""

import pytest

import repro.experiments.scenario as scenario_module
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario

#: Slower than the paper's 1.5 km/s.
SLOW_WATER_MPS = 1000.0


@pytest.fixture(autouse=True)
def slow_water(monkeypatch):
    """Build every scenario of this module at :data:`SLOW_WATER_MPS`."""
    monkeypatch.setattr(scenario_module, "DEFAULT_SOUND_SPEED_MPS", SLOW_WATER_MPS)


@pytest.mark.parametrize("protocol", ["S-FAMA", "ROPA", "CS-MAC", "EW-MAC", "ALOHA"])
def test_static_network_learns_the_configured_speed(protocol):
    config = table2_config(
        protocol=protocol,
        n_sensors=20,
        sim_time_s=60.0,
        offered_load_kbps=0.8,
        mobility=False,
        seed=5,
    )
    scenario = Scenario(config)
    result = scenario.run_steady_state()
    assert result.throughput.total_bits > 0
    channel = scenario.channel
    assert channel.sound_speed_mps == SLOW_WATER_MPS
    assert scenario.timing.tau_max_s == channel.max_range_m / SLOW_WATER_MPS
    checked = 0
    for node in scenario.nodes:
        for neighbor in node.neighbors.neighbors():
            distance = channel.distance_m(node.node_id, neighbor)
            assert node.neighbors.delay_to(neighbor) == pytest.approx(
                distance / SLOW_WATER_MPS, abs=1e-6
            )
            checked += 1
    assert checked > 10


@pytest.mark.parametrize("protocol", ["ROPA", "CS-MAC"])
def test_two_hop_announcements_carry_the_configured_speed(protocol):
    # A NEIGH announcement carries the announcer's learned one-hop delays,
    # so the two-hop table stores delays of the configured speed too.
    config = table2_config(
        protocol=protocol,
        n_sensors=20,
        sim_time_s=120.0,
        offered_load_kbps=0.4,
        mobility=False,
        seed=5,
    )
    scenario = Scenario(config)
    scenario.run_steady_state()
    channel = scenario.channel
    checked = 0
    for mac in scenario.macs:
        for announcer, links in mac.two_hop._links.items():
            for other, delay in links.items():
                distance = channel.distance_m(announcer, other)
                assert delay == pytest.approx(distance / SLOW_WATER_MPS, abs=1e-6)
                checked += 1
    assert checked > 10


def test_ewmac_extras_fire_in_slow_water():
    # Eq. (6) schedules an extra transfer from tau_ij and the slot grid;
    # with both at the configured speed the extras still complete.
    config = table2_config(
        protocol="EW-MAC",
        n_sensors=30,
        sim_time_s=120.0,
        offered_load_kbps=0.8,
        seed=3,
    )
    assert Scenario(config).run_steady_state().extra_completed > 0
