"""Unit tests for workload generators."""

import pytest

from repro.des.simulator import Simulator
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.topology.deployment import DeploymentConfig, connected_column_deployment
from repro.topology.routing import DepthRouting
from repro.traffic.generators import (
    BatchWorkload,
    PoissonTraffic,
    offered_load_to_rate,
)


def build_network(sim, n=20, seed=0):
    config = DeploymentConfig(n_sensors=n, seed=seed)
    dep = connected_column_deployment(config)
    channel = AcousticChannel(sim)
    nodes = [
        Node(sim, i, pos, channel, is_sink=(i in dep.sink_ids))
        for i, pos in enumerate(dep.positions)
    ]
    routing = DepthRouting(channel, dep.sink_ids)
    return nodes, routing


class TestRateCalibration:
    def test_paper_fig8_calibration(self):
        # "20 packets per 300 s, i.e. offer load of approximately 0.136":
        rate = offered_load_to_rate(0.136, 2048)
        assert rate * 300 == pytest.approx(20.0, rel=0.03)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            offered_load_to_rate(-0.1, 2048)
        with pytest.raises(ValueError):
            offered_load_to_rate(0.1, 0)


class TestPoisson:
    def test_generated_load_matches_offered(self):
        sim = Simulator(seed=1)
        nodes, routing = build_network(sim)
        traffic = PoissonTraffic(sim, nodes, routing, offered_load_kbps=0.5)
        traffic.start()
        sim.run(until=2000.0)
        measured_kbps = traffic.stats.bits / 2000.0 / 1000.0
        assert measured_kbps == pytest.approx(0.5, rel=0.15)

    def test_zero_load_generates_nothing(self):
        sim = Simulator(seed=1)
        nodes, routing = build_network(sim)
        traffic = PoissonTraffic(sim, nodes, routing, offered_load_kbps=0.0)
        traffic.start()
        sim.run(until=100.0)
        assert traffic.stats.packets == 0

    def test_destinations_are_next_hops(self):
        sim = Simulator(seed=2)
        nodes, routing = build_network(sim)
        traffic = PoissonTraffic(sim, nodes, routing, offered_load_kbps=1.0)
        traffic.start()
        sim.run(until=300.0)
        for node in nodes:
            for request in node.queue:
                assert request.dst == routing.next_hop(node.node_id)

    def test_sinks_generate_nothing(self):
        sim = Simulator(seed=3)
        nodes, routing = build_network(sim)
        traffic = PoissonTraffic(sim, nodes, routing, offered_load_kbps=1.0)
        traffic.start()
        sim.run(until=300.0)
        sinks = [n for n in nodes if n.is_sink]
        assert all(n.app_stats.generated == 0 for n in sinks)

    def test_stop_halts_generation(self):
        sim = Simulator(seed=4)
        nodes, routing = build_network(sim)
        traffic = PoissonTraffic(sim, nodes, routing, offered_load_kbps=1.0)
        traffic.start()
        sim.run(until=100.0)
        count = traffic.stats.packets
        traffic.stop()
        sim.run(until=200.0)
        assert traffic.stats.packets == count

    def test_all_sinks_rejected(self):
        sim = Simulator()
        channel = AcousticChannel(sim)
        from repro.acoustic.geometry import Position

        only_sink = [Node(sim, 0, Position(0, 0, 0), channel, is_sink=True)]
        with pytest.raises(ValueError):
            PoissonTraffic(sim, only_sink, None, 0.5)


class TestBatch:
    def test_injects_exact_count_over_window(self):
        sim = Simulator(seed=1)
        nodes, routing = build_network(sim)
        batch = BatchWorkload(sim, nodes, routing, n_packets=25, inject_window_s=50.0)
        batch.start()
        sim.run(until=60.0)
        assert batch.stats.packets == 25
        queued = sum(len(n.queue) for n in nodes)
        assert queued == 25

    def test_injections_are_staggered(self):
        sim = Simulator(seed=1)
        nodes, routing = build_network(sim)
        batch = BatchWorkload(sim, nodes, routing, n_packets=20, inject_window_s=100.0)
        batch.start()
        sim.run(until=50.0)
        mid_count = batch.stats.packets
        sim.run(until=110.0)
        assert 0 < mid_count < batch.stats.packets

    def test_drained_when_queues_empty_after_window(self):
        sim = Simulator(seed=1)
        nodes, routing = build_network(sim)
        batch = BatchWorkload(sim, nodes, routing, n_packets=3, inject_window_s=10.0)
        batch.start()
        assert not batch.all_drained()  # injections still pending
        sim.run(until=15.0)
        assert not batch.all_drained()  # queued packets remain
        for node in nodes:
            while node.queue:
                node.note_sent(node.queue.popleft())
        assert batch.all_drained()

    def test_negative_count_rejected(self):
        sim = Simulator()
        nodes, routing = build_network(sim, n=5)
        with pytest.raises(ValueError):
            BatchWorkload(sim, nodes, routing, n_packets=-1)
        with pytest.raises(ValueError):
            BatchWorkload(sim, nodes, routing, n_packets=1, inject_window_s=-1.0)


class TestDeadSources:
    """A crashed sensor generates nothing: arrivals drawn at it are skipped."""

    def test_poisson_skips_dead_sources(self):
        arrivals = {}
        for crash in (False, True):
            sim = Simulator(seed=2)
            nodes, routing = build_network(sim)
            dead = [n for n in nodes if not n.is_sink][::2] if crash else []
            for node in dead:
                node.fail()
            traffic = PoissonTraffic(sim, nodes, routing, offered_load_kbps=1.0)
            traffic.start()
            sim.run(until=300.0)
            stats = traffic.stats
            arrivals[crash] = stats.packets + stats.undeliverable
            for node in dead:
                assert not node.queue
                assert node.app_stats.generated == 0
                node.recover()
                assert not node.queue  # rejoins with an empty queue
        # The source draws are unchanged: only their outcome differs.
        assert arrivals[True] == arrivals[False]

    def test_batch_skips_dead_sources(self):
        sim = Simulator(seed=1)
        nodes, routing = build_network(sim)
        dead = [n for n in nodes if not n.is_sink][::2]
        for node in dead:
            node.fail()
        batch = BatchWorkload(sim, nodes, routing, n_packets=40, inject_window_s=50.0)
        batch.start()
        sim.run(until=60.0)
        assert batch.stats.packets + batch.stats.undeliverable == 40
        assert 0 < batch.stats.packets < 40
        assert sum(len(n.queue) for n in nodes) == batch.stats.packets
        for node in dead:
            assert not node.queue
            node.recover()
            assert not node.queue
