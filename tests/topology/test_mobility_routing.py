"""Unit tests for mobility models and depth routing."""

import math

import numpy as np
import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.topology.deployment import DeploymentConfig, connected_column_deployment
from repro.topology.mobility import (
    DEFAULT_DRIFT_SPEED_MPS,
    DEFAULT_OSCILLATION_AMPLITUDE_M,
    DEFAULT_OSCILLATION_PERIOD_S,
    DEFAULT_TETHER_M,
    HorizontalDriftModel,
    MobilityManager,
    StaticModel,
    VerticalOscillationModel,
)
from repro.topology.routing import DepthRouting
from tests.helpers import sensor_ids


class TestModels:
    def test_model_constants(self):
        assert DEFAULT_DRIFT_SPEED_MPS == 0.5
        assert DEFAULT_OSCILLATION_AMPLITUDE_M == 100.0
        assert DEFAULT_OSCILLATION_PERIOD_S == 120.0

    def test_static_never_moves(self):
        model = StaticModel()
        p = Position(1, 2, 3)
        assert model.step(p, 100.0) is p

    def test_horizontal_keeps_depth(self):
        rng = np.random.default_rng(0)
        model = HorizontalDriftModel(rng)
        p = Position(0, 0, 500)
        moved = model.step(p, 10.0)
        assert moved.z == 500
        assert math.hypot(p.x - moved.x, p.y - moved.y) == pytest.approx(10.0 * DEFAULT_DRIFT_SPEED_MPS)

    def test_vertical_keeps_xy_and_is_bounded(self):
        rng = np.random.default_rng(0)
        model = VerticalOscillationModel(rng)
        p = Position(10, 20, 500)
        max_dev = 0.0
        # 100 steps of 5 s span several DEFAULT_OSCILLATION_PERIOD_S periods.
        for _ in range(100):
            p = model.step(p, 5.0)
            assert (p.x, p.y) == (10, 20)
            max_dev = max(max_dev, abs(p.z - 500))
        assert 0.0 < max_dev <= 2 * DEFAULT_OSCILLATION_AMPLITUDE_M + 1e-6


class TestManager:
    def _build(self, seed=0):
        sim = Simulator(seed=seed)
        config = DeploymentConfig(n_sensors=20, seed=seed)
        dep = connected_column_deployment(config)
        channel = AcousticChannel(sim)
        nodes = [
            Node(sim, i, pos, channel, is_sink=(i in dep.sink_ids))
            for i, pos in enumerate(dep.positions)
        ]
        manager = MobilityManager(sim, nodes, config)
        return sim, nodes, manager

    @staticmethod
    def _horizontal(nodes, manager):
        """The nodes the manager assigned the horizontal drift model."""
        picked = [n for n in nodes if manager.assignments[n.node_id] == "horizontal"]
        assert picked
        return picked

    def test_sinks_stay_static(self):
        sim, nodes, manager = self._build()
        assert manager.assignments[0] == "static"

    def test_every_model_is_drawn(self):
        sim, nodes, manager = self._build()
        assert set(manager.assignments.values()) == {"static", "horizontal", "vertical"}

    def test_tether_bounds_wander(self):
        sim, nodes, manager = self._build()
        drifting = self._horizontal(nodes, manager)
        anchors = {n.node_id: n.position for n in nodes}
        for _ in range(200):
            manager.step(10.0)
        for node in nodes:
            assert node.position.distance_to(anchors[node.node_id]) <= DEFAULT_TETHER_M + 1e-6
        # 2000 s at DEFAULT_DRIFT_SPEED_MPS would carry a node well past the tether.
        assert any(
            node.position.distance_to(anchors[node.node_id]) > DEFAULT_TETHER_M / 2
            for node in drifting
        )

    def test_periodic_updates_via_simulator(self):
        sim, nodes, manager = self._build()
        drifting = self._horizontal(nodes, manager)
        start = [n.position for n in drifting]
        manager.start()
        sim.run(until=30.0)
        moved = [n.position.distance_to(s) for n, s in zip(drifting, start)]
        assert all(d > 0 for d in moved)
        manager.stop()


class TestRouting:
    def _build(self, n=40, seed=0):
        sim = Simulator(seed=seed)
        config = DeploymentConfig(n_sensors=n, seed=seed)
        dep = connected_column_deployment(config)
        channel = AcousticChannel(sim)
        for i, pos in enumerate(dep.positions):
            Node(sim, i, pos, channel, is_sink=(i in dep.sink_ids))
        return channel, dep

    def test_next_hop_is_shallower(self):
        channel, dep = self._build()
        routing = DepthRouting(channel, dep.sink_ids)
        for node_id in sensor_ids(dep):
            nxt = routing.next_hop(node_id)
            if nxt is None:
                continue
            if nxt not in dep.sink_ids:
                assert channel.position_of(nxt).z < channel.position_of(node_id).z

    def test_routes_reach_sink_in_connected_deployment(self):
        channel, dep = self._build(seed=1)
        routing = DepthRouting(channel, dep.sink_ids)
        reached = 0
        for node_id in sensor_ids(dep):
            hop = node_id
            for _ in range(len(dep.positions)):  # depth strictly decreases
                hop = routing.next_hop(hop)
                if hop is None or hop in dep.sink_ids:
                    break
            if hop in dep.sink_ids:
                reached += 1
        assert reached >= len(sensor_ids(dep)) * 0.9

    def test_no_shallower_neighbour_means_no_next_hop(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        Node(sim, 0, Position(0.0, 0.0, 0.0), channel, is_sink=True)
        # 1 and 2 hear each other but not the sink, at the same depth;
        # 3 hears nobody.
        Node(sim, 1, Position(0.0, 0.0, 2000.0), channel)
        Node(sim, 2, Position(1000.0, 0.0, 2000.0), channel)
        Node(sim, 3, Position(9000.0, 0.0, 5000.0), channel)
        routing = DepthRouting(channel, [0])
        assert list(channel.neighbors_of(1)) == [2]
        assert list(channel.neighbors_of(3)) == []
        for node_id in (1, 2, 3):
            assert routing.next_hop(node_id) is None

    def test_sink_in_range_preferred(self):
        channel, dep = self._build(seed=2)
        routing = DepthRouting(channel, dep.sink_ids)
        for node_id in sensor_ids(dep):
            neighbors = channel.neighbors_of(node_id)
            in_range_sinks = [s for s in dep.sink_ids if s in neighbors]
            if in_range_sinks:
                assert routing.next_hop(node_id) in in_range_sinks

    def test_requires_sinks(self):
        channel, dep = self._build()
        with pytest.raises(ValueError):
            DepthRouting(channel, [])
