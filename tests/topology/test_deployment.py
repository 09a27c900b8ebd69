"""Unit tests for deployments."""

import pytest

from repro.topology.deployment import (
    DeploymentConfig,
    connected_column_deployment,
    density_link_scale,
)
from tests.helpers import is_connected, sensor_ids


def test_connected_deployment_is_connected():
    for seed in range(5):
        dep = connected_column_deployment(DeploymentConfig(n_sensors=60, seed=seed))
        assert is_connected(dep), f"seed {seed} produced a disconnected deployment"


def test_connected_deployment_links_within_range():
    config = DeploymentConfig(n_sensors=80, seed=3)
    dep = connected_column_deployment(config)
    # every sensor has at least one in-range neighbour (its parent)
    for node_id in sensor_ids(dep):
        assert dep.neighbors_of(node_id), f"node {node_id} isolated"


def test_density_scaling_shrinks_links():
    sparse = connected_column_deployment(DeploymentConfig(n_sensors=60, seed=7))
    dense = connected_column_deployment(DeploymentConfig(n_sensors=140, seed=7))
    assert dense.mean_link_distance_m() < sparse.mean_link_distance_m()


def test_density_link_scale_formula():
    assert density_link_scale(60) == pytest.approx(1.0)
    assert density_link_scale(480) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        density_link_scale(0)


def test_mean_degree_grows_with_density():
    sparse = connected_column_deployment(DeploymentConfig(n_sensors=60, seed=2))
    dense = connected_column_deployment(DeploymentConfig(n_sensors=140, seed=2))
    assert dense.mean_degree() > sparse.mean_degree()


def test_deterministic_per_seed():
    a = connected_column_deployment(DeploymentConfig(n_sensors=30, seed=11))
    b = connected_column_deployment(DeploymentConfig(n_sensors=30, seed=11))
    assert a.positions == b.positions
