"""Failure injection: nodes dying mid-simulation.

Sensors flood, sink, or exhaust batteries; the network must keep
operating: routing resolves around dead relays and the MAC layer's
timeouts clean up exchanges that died with a peer.
"""

import pytest

from repro.experiments import Scenario, table2_config
from tests.helpers import sensor_ids


def build(protocol="EW-MAC", **kw):
    defaults = dict(
        protocol=protocol,
        n_sensors=25,
        sim_time_s=120.0,
        offered_load_kbps=0.8,
        seed=6,
        mobility=False,
    )
    defaults.update(kw)
    return Scenario(table2_config(**defaults))


@pytest.mark.parametrize("protocol", ["S-FAMA", "ROPA", "CS-MAC", "EW-MAC"])
def test_network_survives_relay_death(protocol):
    scenario = Scenario(
        table2_config(
            protocol=protocol,
            n_sensors=25,
            sim_time_s=150.0,
            offered_load_kbps=0.8,
            seed=6,
            mobility=False,
        )
    )
    # kill the busiest relay (the sink's closest neighbour) mid-run
    sink = scenario.deployment.sink_ids[0]
    victim_id = scenario.channel.neighbors_of(sink)[0]
    victim = scenario.nodes[victim_id]
    scenario.sim.schedule(60.0, victim.fail)
    result = scenario.run_steady_state()
    assert not victim.alive
    # the network kept delivering after the failure
    assert result.throughput_kbps > 0.0
    # and the dead node is no longer a routing candidate
    assert victim_id not in scenario.channel.neighbors_of(sink)


def test_dead_node_sends_and_receives_nothing():
    scenario = build()
    victim = scenario.nodes[5]
    scenario.sim.schedule(30.0, victim.fail)
    scenario.run_steady_state()
    tx_before_death = victim.modem.stats.tx_frames
    # rerun bookkeeping: no transmissions can have been recorded after 30 s
    # (tx counter can only have grown before the failure); verify the modem
    # is inert by attempting an arrival
    from repro.phy.frame import FrameType, control_frame
    from repro.phy.modem import Arrival

    frame = control_frame(FrameType.RTS, 1, victim.node_id, timestamp=0.0)
    arrival = Arrival(frame, 1, scenario.sim.now, scenario.sim.now + 0.005, -30.0, 0.1)
    before = victim.modem.stats.rx_ok
    victim.modem.begin_arrival(arrival)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert victim.modem.stats.rx_ok == before
    assert tx_before_death == victim.modem.stats.tx_frames


def test_transmit_on_dead_modem_raises():
    scenario = build()
    victim = scenario.nodes[3]
    victim.fail()
    from repro.phy.frame import FrameType, control_frame

    with pytest.raises(RuntimeError):
        victim.modem.transmit(control_frame(FrameType.RTS, 3, 1, timestamp=0.0))


def test_routing_recovers_alternative_path():
    scenario = build()
    # find a node with at least two shallower neighbours
    routing = scenario.routing
    for node_id in sensor_ids(scenario.deployment):
        first = routing.next_hop(node_id)
        if first is None or first == scenario.deployment.sink_ids[0]:
            continue
        scenario.nodes[first].fail()
        second = routing.next_hop(node_id)
        assert second != first
        scenario.nodes[first].modem.enabled = True  # restore for next iter
        if second is not None:
            return
    pytest.skip("topology offered no redundant paths at this seed")


def test_mass_failure_degrades_gracefully():
    """Half the sensors die at once; the simulation must not wedge."""
    scenario = build(n_sensors=30)
    victims = [scenario.nodes[i] for i in sensor_ids(scenario.deployment)[::2]]

    def massacre():
        for victim in victims:
            victim.fail()

    scenario.sim.schedule(50.0, massacre)
    result = scenario.run_steady_state()
    assert all(not v.alive for v in victims)
    assert result.throughput.total_bits >= 0
