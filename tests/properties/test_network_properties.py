"""Property-based tests over topology, neighbour tables and the modem."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.neighbors import NeighborTable
from repro.topology.deployment import DeploymentConfig, connected_column_deployment
from tests.helpers import is_connected


@given(
    st.integers(min_value=5, max_value=80),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_connected_deployment_always_connected(n_sensors, seed):
    dep = connected_column_deployment(DeploymentConfig(n_sensors=n_sensors, seed=seed))
    assert is_connected(dep)
    assert dep.n_nodes == n_sensors + 1
    for pos in dep.positions:
        assert 0.0 <= pos.z <= dep.config.depth_m


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        min_size=1,
        max_size=100,
    ),
)
def test_neighbor_table_delay_within_observed_bounds(observations):
    """Each entry is its latest measurement, inside the [min, max] of all."""
    table = NeighborTable(owner_id=0)
    seen = {}
    for node_id, delay in observations:
        table.observe(node_id, delay)
        seen.setdefault(node_id, []).append(delay)
    for node_id, delays in seen.items():
        est = table.delay_to(node_id)
        assert min(delays) - 1e-9 <= est <= max(delays) + 1e-9
        assert abs(est - delays[-1]) <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_modem_busy_time_bounded_by_simulation(seed):
    """rx_busy + tx time can never exceed elapsed simulation time."""
    from repro.experiments import Scenario, table2_config

    cfg = table2_config(
        protocol="S-FAMA",
        n_sensors=12,
        sim_time_s=30.0,
        offered_load_kbps=0.8,
        seed=seed,
    )
    scenario = Scenario(cfg)
    scenario.run_steady_state()
    elapsed = scenario.sim.now
    for mac in scenario.macs:
        stats = mac.node.modem.stats
        assert stats.tx_time_s <= elapsed + 1e-6
        assert stats.rx_busy_time_s <= elapsed + 1e-6
