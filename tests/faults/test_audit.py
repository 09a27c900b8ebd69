"""Post-run invariant audit: wedged-handshake detection and MAC hardening.

The acceptance scenario for the robustness work lives here: a 20% crash
wave (plus outages, a clock fault, and a noise burst) must complete for
every protocol under the *strict* audit — a peer dying mid-exchange may
cost throughput, never wedge a state machine.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.chaos import CHAOS_PROTOCOLS, chaos_plan
from repro.experiments.config import table2_config
from repro.experiments.scenario import run_scenario
from repro.faults.audit import FaultAuditError, audit_macs
from repro.faults.plan import CrashWave, FaultPlan
from repro.mac.base import MacState
from repro.mac.registry import get_protocol
from repro.mac.slots import make_slot_timing
from repro.net.node import DataRequest, Node
from repro.phy.channel import AcousticChannel

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator


def build_mac(protocol="S-FAMA"):
    sim = Simulator(seed=1)
    channel = AcousticChannel(sim)
    node = Node(sim, 0, Position(0.0, 0.0, 100.0), channel)
    timing = make_slot_timing(
        bitrate_bps=12_000.0, control_bits=64, max_range_m=1500.0, speed_mps=1500.0
    )
    mac = get_protocol(protocol)(sim, node, channel, timing)
    return sim, mac


def quick_config(protocol, fraction=0.2, strict=True, seed=1):
    base = table2_config(n_sensors=20, sim_time_s=60.0, protocol=protocol, seed=seed)
    plan = chaos_plan(fraction, base.warmup_s, base.sim_time_s, base.n_sensors)
    return base.with_(faults=dataclasses.replace(plan, strict_audit=strict))


class TestAuditMechanics:
    def test_unstarted_mac_is_exempt(self):
        _, mac = build_mac()
        mac.state = MacState.WAIT_CTS  # never started: frozen state is fine
        assert mac.audit_pending_state() == []

    def test_dead_mac_is_exempt(self):
        _, mac = build_mac()
        mac.node.fail()
        assert mac.audit_pending_state() == []

    def test_dead_slot_engine_reported_first(self):
        sim, mac = build_mac()
        mac.start()
        mac.node.enqueue_data(1, 1024)  # queued data keeps the node ticking
        sim.run(until=10.0)
        assert mac._sleep is None
        mac.sim.cancel(mac._slot_event)
        violations = mac.audit_pending_state()
        assert violations == [f"{mac.name} node 0: slot engine not running"]

    @pytest.mark.parametrize("protocol", ["S-FAMA", "EW-MAC", "ROPA", "CS-MAC"])
    def test_sleeping_node_is_legitimate(self, protocol):
        sim, mac = build_mac(protocol)
        mac.start()
        sim.run(until=10.0)
        assert mac._sleep is not None
        # A protocol with maintenance sleeps with its maintenance tick armed.
        assert (mac._slot_event is not None) == (mac.maintenance_period_s is not None)
        assert mac.audit_pending_state() == []

    @pytest.mark.parametrize("protocol", ["ROPA", "CS-MAC"])
    def test_sleep_without_a_maintenance_wake_reported(self, protocol):
        sim, mac = build_mac(protocol)
        mac.start()
        sim.run(until=10.0)
        mac.sim.cancel(mac._slot_event)
        assert mac.audit_pending_state() == [
            f"{mac.name} node 0: asleep without a maintenance wake"
        ]

    def test_sleep_with_slot_work_due_reported(self):
        sim, mac = build_mac()
        mac.start()
        sim.run(until=10.0)
        mac.node.queue.append(DataRequest(1, 1024, sim.now))  # no wake-up call
        assert mac.audit_pending_state() == [f"{mac.name} node 0: asleep with slot work due"]

    @pytest.mark.parametrize(
        "state, expect",
        [
            (MacState.WAIT_CTS, "WAIT_CTS without a live CTS timeout"),
            (MacState.WAIT_ACK, "WAIT_ACK without a live Ack timeout"),
            (MacState.WAIT_SEND_DATA, "WAIT_SEND_DATA without a data due slot"),
            (MacState.WAIT_DATA, "WAIT_DATA without a live data timeout"),
        ],
    )
    def test_orphaned_wait_states_detected(self, state, expect):
        sim, mac = build_mac()
        mac.start()
        sim.run(until=10.0)
        mac.state = state  # wedge it: no escape event was scheduled
        violations = mac.audit_pending_state()
        assert len(violations) == 1
        assert expect in violations[0]

    def test_wait_cts_with_live_timeout_is_clean(self):
        sim, mac = build_mac()
        mac.start()
        sim.run(until=10.0)
        mac.state = MacState.WAIT_CTS
        mac._cts_timeout = sim.schedule(5.0, lambda: None)
        assert mac.audit_pending_state() == []

    def test_audit_macs_aggregates(self):
        sim, mac = build_mac()
        mac.start()
        sim.run(until=10.0)
        mac.state = MacState.WAIT_CTS
        violations = audit_macs([mac, mac])
        assert len(violations) == 2

    def test_error_message_counts_violations(self):
        err = FaultAuditError(["a wedged", "b wedged"])
        assert "2 wedged handshake(s)" in str(err)
        assert err.violations == ("a wedged", "b wedged")


class TestRestartCleansState:
    @pytest.mark.parametrize("protocol", CHAOS_PROTOCOLS)
    def test_restart_returns_to_auditable_idle(self, protocol):
        sim, mac = build_mac(protocol)
        mac.start()
        sim.run(until=10.0)
        mac.state = MacState.WAIT_CTS  # simulate a wedge...
        mac.restart()  # ...then the crash/recover path
        sim.run(until=20.0)
        assert mac.state is MacState.IDLE
        assert mac.audit_pending_state() == []


class TestAcceptanceScenario:
    """The ISSUE's 20%-crash bar, per protocol, under the strict audit."""

    @pytest.mark.parametrize("protocol", CHAOS_PROTOCOLS)
    def test_crash_wave_run_completes_clean(self, protocol):
        result = run_scenario(quick_config(protocol))
        report = result.faults
        assert report is not None
        assert report.wedged_handshakes == 0
        assert report.audit_violations == ()
        assert report.crashes > 0
        assert report.recoveries > 0
        assert 0.0 < result.delivery_ratio
        # Recovered nodes resumed application-level work.
        assert report.recovery_times_s
        assert report.mean_recovery_time_s > 0.0

    def test_same_seed_reproduces_the_result_and_fault_log(self):
        first = run_scenario(quick_config("EW-MAC"))
        second = run_scenario(quick_config("EW-MAC"))
        assert first.to_dict() == second.to_dict()
        assert first.faults.events == second.faults.events

    def test_strict_audit_raises_on_a_wedge(self, monkeypatch):
        # Force a violation to prove the strict path actually raises.
        monkeypatch.setattr(
            "repro.experiments.scenario.audit_macs",
            lambda macs: ["synthetic wedge"],
        )
        with pytest.raises(FaultAuditError, match="synthetic wedge"):
            run_scenario(quick_config("S-FAMA"))

    def test_lax_audit_reports_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.scenario.audit_macs",
            lambda macs: ["synthetic wedge"],
        )
        result = run_scenario(quick_config("S-FAMA", strict=False))
        assert result.faults.wedged_handshakes == 1
        assert result.faults.audit_violations == ("synthetic wedge",)


class TestFaultlessScenario:
    def test_fraction_zero_plan_reports_nothing(self):
        base = table2_config(n_sensors=10, sim_time_s=20.0)
        plan = chaos_plan(0.0, base.warmup_s, base.sim_time_s, base.n_sensors)
        assert plan.empty
        result = run_scenario(base.with_(faults=plan))
        assert result.faults is None

    def test_full_wave_with_recovery_still_audits_clean(self):
        base = table2_config(n_sensors=10, sim_time_s=40.0, protocol="EW-MAC")
        plan = FaultPlan(
            waves=(CrashWave(at_s=base.warmup_s + 10.0, fraction=1.0, recover_after_s=10.0),)
        )
        result = run_scenario(base.with_(faults=plan))
        assert result.faults.crashes == 10  # every non-sink died
        assert result.faults.recoveries == 10
        assert result.faults.wedged_handshakes == 0
