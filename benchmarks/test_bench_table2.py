"""Table 2 benchmark: one full default-parameter scenario run.

Validates that the scenario builder realizes exactly the paper's published
simulation parameters and measures the cost of one 300 s, 60-sensor,
EW-MAC simulation at those defaults.
"""

import pytest

from repro.experiments import Scenario, table2_config
from repro.experiments.config import TABLE2


def run_table2_scenario():
    config = table2_config(protocol="EW-MAC", offered_load_kbps=0.5)
    scenario = Scenario(config)
    result = scenario.run_steady_state()
    return scenario, result


def test_table2_defaults_and_run(one_shot):
    scenario, result = one_shot(run_table2_scenario)
    config = scenario.config
    # Table 2 row by row
    assert config.n_sensors == TABLE2["number_of_sensors"]
    assert (config.side_m / 1000.0) ** 3 == pytest.approx(TABLE2["deployment_area_km3"])
    channel = scenario.channel
    assert channel.bitrate_bps == TABLE2["bandwidth_kbps"] * 1000.0
    assert channel.max_range_m == TABLE2["communication_range_km"] * 1000.0
    assert channel.sound_speed_mps == TABLE2["acoustic_speed_km_s"] * 1000.0
    assert config.sim_time_s == TABLE2["simulation_time_s"]
    assert scenario.timing.omega_s == TABLE2["control_packet_bits"] / channel.bitrate_bps
    lo, hi = TABLE2["data_packet_bits_range"]
    assert lo <= config.data_packet_bits <= hi
    # the run produced traffic under those parameters
    assert result.throughput_kbps > 0
    print(
        f"\nTable 2 run: throughput={result.throughput_kbps:.3f} kbps, "
        f"power={result.power_mw:.0f} mW, collisions={result.collisions}, "
        f"extras={result.extra_completed}"
    )
