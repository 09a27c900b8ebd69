"""Unit tests for the fault injector (plan -> scheduled DES events)."""

from __future__ import annotations

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ClockFault,
    CrashWave,
    FaultPlan,
    ModemOutage,
    NodeCrash,
    NoiseBurst,
)
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_network(sim, count=5, sinks=(0,)):
    """A channel plus ``count`` bare nodes (no MAC) on a 500 m line."""
    channel = AcousticChannel(sim)
    nodes = [
        Node(
            sim,
            node_id,
            Position(node_id * 500.0, 0.0, 100.0),
            channel,
            is_sink=node_id in sinks,
        )
        for node_id in range(count)
    ]
    return channel, nodes


def run_injector(sim, channel, nodes, plan, until=100.0):
    injector = FaultInjector(sim, nodes, channel, plan)
    injector.arm()
    sim.schedule_at(until, lambda: None)  # keep the horizon fixed
    sim.run(until=until)
    return injector


class TestLifecycle:
    def test_empty_plan_refused(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        with pytest.raises(ValueError):
            FaultInjector(sim, nodes, channel, FaultPlan())

    def test_double_arm_refused(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(crashes=(NodeCrash(node_id=1, at_s=10.0),))
        injector = FaultInjector(sim, nodes, channel, plan)
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_unknown_node_id_rejected_at_arm(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(crashes=(NodeCrash(node_id=99, at_s=10.0),))
        injector = FaultInjector(sim, nodes, channel, plan)
        with pytest.raises(ValueError, match="node 99"):
            injector.arm()


class TestCrashAndRecovery:
    def test_crash_then_recover(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        victim = nodes[2]
        victim.enqueue_data(0, 1024)
        plan = FaultPlan(
            crashes=(NodeCrash(node_id=2, at_s=10.0, recover_after_s=20.0),)
        )
        timeline = []
        sim.schedule_at(15.0, lambda: timeline.append(victim.alive))
        sim.schedule_at(40.0, lambda: timeline.append(victim.alive))
        injector = run_injector(sim, channel, nodes, plan)
        assert timeline == [False, True]
        assert not victim.queue  # queued data died with the node
        assert victim.recovered_at == pytest.approx(30.0)
        assert injector.counts.crashes == 1
        assert injector.counts.recoveries == 1
        assert [(e.time_s, e.kind) for e in injector.events] == [
            (10.0, "crash"),
            (30.0, "recover"),
        ]

    def test_permanent_crash_never_recovers(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(crashes=(NodeCrash(node_id=3, at_s=10.0),))
        injector = run_injector(sim, channel, nodes, plan)
        assert not nodes[3].alive
        assert injector.counts.recoveries == 0

    def test_overlapping_crashes_counted_once(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(
            crashes=(
                NodeCrash(node_id=2, at_s=10.0),
                NodeCrash(node_id=2, at_s=12.0),
            )
        )
        injector = run_injector(sim, channel, nodes, plan)
        assert injector.counts.crashes == 1


class TestWave:
    def test_wave_spares_sinks_and_kills_the_fraction(self):
        sim = Simulator(seed=7)
        channel, nodes = build_network(sim, count=11, sinks=(0,))
        plan = FaultPlan(waves=(CrashWave(at_s=10.0, fraction=0.5),))
        run_injector(sim, channel, nodes, plan)
        dead = [n.node_id for n in nodes if not n.alive]
        assert len(dead) == 5  # round(0.5 * 10 eligible)
        assert 0 not in dead  # the sink survives by construction

    def test_same_seed_kills_the_same_nodes(self):
        victims = []
        for _ in range(2):
            sim = Simulator(seed=7)
            channel, nodes = build_network(sim, count=11, sinks=(0,))
            plan = FaultPlan(
                waves=(CrashWave(at_s=10.0, fraction=0.3, jitter_s=5.0),)
            )
            injector = run_injector(sim, channel, nodes, plan)
            victims.append(tuple(injector.events))
        assert victims[0] == victims[1]

    def test_different_seed_differs(self):
        victims = []
        for seed in (7, 8):
            sim = Simulator(seed=seed)
            channel, nodes = build_network(sim, count=11, sinks=(0,))
            plan = FaultPlan(waves=(CrashWave(at_s=10.0, fraction=0.3),))
            injector = run_injector(sim, channel, nodes, plan)
            victims.append(tuple(e.node_id for e in injector.events))
        assert victims[0] != victims[1]


class TestOutages:
    def test_tx_outage_window(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        modem = nodes[1].modem
        plan = FaultPlan(
            outages=(ModemOutage(node_id=1, at_s=10.0, duration_s=5.0, direction="tx"),)
        )
        snapshots = []
        sim.schedule_at(12.0, lambda: snapshots.append((modem.tx_enabled, modem.rx_enabled)))
        injector = run_injector(sim, channel, nodes, plan)
        assert snapshots == [(False, True)]
        assert modem.tx_enabled and modem.rx_enabled  # restored at 15 s
        assert injector.counts.tx_outages == 1
        assert injector.counts.rx_outages == 0

    def test_both_outage_counts_both_chains(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(
            outages=(
                ModemOutage(node_id=2, at_s=10.0, duration_s=5.0, direction="both"),
            )
        )
        injector = run_injector(sim, channel, nodes, plan)
        assert injector.counts.tx_outages == 1
        assert injector.counts.rx_outages == 1
        kinds = [e.kind for e in injector.events]
        assert kinds == ["outage_start", "outage_end"]

    def test_node_zero_outage_is_traced_to_node_zero(self):
        # Node 0 is a real node: its trace records must not read as the
        # network-wide node -1.
        sim = Simulator(seed=1, tracer=Tracer(["fault."]))
        channel, nodes = build_network(sim)
        plan = FaultPlan(
            outages=(ModemOutage(node_id=0, at_s=10.0, duration_s=5.0, direction="rx"),)
        )
        run_injector(sim, channel, nodes, plan)
        starts = sim.trace.select("fault.outage_start")
        assert [r.node for r in starts] == [0]
        assert [r.node for r in sim.trace.select("fault.outage_end")] == [0]


class TestClockAndNoise:
    def test_clock_fault_applied(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        clock = nodes[3].clock
        plan = FaultPlan(
            clock_faults=(
                ClockFault(node_id=3, at_s=10.0, offset_jump_s=0.05, drift_ppm=5.0),
            )
        )
        injector = run_injector(sim, channel, nodes, plan)
        assert clock.drift_ppm == 5.0
        # Continuity: local(10 s) jumped by exactly the injected offset.
        assert clock.to_local(10.0) == pytest.approx(10.05)
        assert injector.counts.clock_faults == 1

    def test_noise_burst_raises_then_restores_the_floor(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(
            noise_bursts=(NoiseBurst(at_s=10.0, duration_s=5.0, extra_noise_db=6.0),)
        )
        levels = []
        sim.schedule_at(12.0, lambda: levels.append(channel.extra_noise_db))
        injector = run_injector(sim, channel, nodes, plan)
        assert levels == [6.0]
        assert channel.extra_noise_db == 0.0
        assert injector.counts.noise_bursts == 1

    def test_overlapping_bursts_stack(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(
            noise_bursts=(
                NoiseBurst(at_s=10.0, duration_s=10.0, extra_noise_db=6.0),
                NoiseBurst(at_s=15.0, duration_s=10.0, extra_noise_db=3.0),
            )
        )
        levels = []
        sim.schedule_at(17.0, lambda: levels.append(channel.extra_noise_db))
        run_injector(sim, channel, nodes, plan)
        assert levels == [pytest.approx(9.0)]
        assert channel.extra_noise_db == pytest.approx(0.0)


class TestReport:
    def test_report_carries_counters_and_violations(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(
            crashes=(NodeCrash(node_id=1, at_s=10.0, recover_after_s=5.0),)
        )
        injector = run_injector(sim, channel, nodes, plan)
        report = injector.build_report(["node 4: wedged"])
        assert report.crashes == 1
        assert report.recoveries == 1
        assert report.wedged_handshakes == 1
        assert report.audit_violations == ("node 4: wedged",)
        assert report.events == tuple(injector.events)
        assert report.to_dict()["fault_crashes"] == 1

    def test_mean_recovery_time_defaults_to_zero(self):
        sim = Simulator(seed=1)
        channel, nodes = build_network(sim)
        plan = FaultPlan(crashes=(NodeCrash(node_id=1, at_s=10.0),))
        injector = run_injector(sim, channel, nodes, plan)
        report = injector.build_report([])
        assert report.recovery_times_s == ()
        assert report.mean_recovery_time_s == 0.0
