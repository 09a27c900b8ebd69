"""Clock faults, the scenario's seeded clock offsets, and drifted runs.

Covers :meth:`NodeClock.apply_fault` and the scenario's clock wiring:
per-node offsets are drawn in node order from the seeded ``"clocks"``
stream, and a zero std draws nothing.  Drift is not a scenario setting;
the drifted-run tests give each built node's clock a seeded drift rate
here, and check that worst-case slot skew stays inside the grid's guard
allowance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.simulator import Simulator
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from repro.net.clock import NodeClock


class TestApplyFault:
    def test_offset_jump_is_discontinuous_but_anchored(self):
        sim = Simulator()
        clock = NodeClock(sim, offset_s=0.1, drift_ppm=20.0)
        sim.schedule(100.0, lambda: None)
        sim.run()
        before = clock.now()
        clock.apply_fault(offset_jump_s=0.05)
        assert clock.now() == pytest.approx(before + 0.05)

    def test_drift_change_preserves_local_continuity(self):
        sim = Simulator()
        clock = NodeClock(sim, offset_s=0.02, drift_ppm=50.0)
        sim.schedule(200.0, lambda: None)
        sim.run()
        before = clock.now()
        clock.apply_fault(drift_ppm=-30.0)
        assert clock.drift_ppm == -30.0
        # No jump requested: local time is continuous through the fault...
        assert clock.now() == pytest.approx(before)

    def test_new_drift_only_affects_the_future(self):
        sim = Simulator()
        clock = NodeClock(sim, drift_ppm=0.0)
        sim.schedule(100.0, lambda: None)
        sim.run()
        clock.apply_fault(drift_ppm=100.0)
        at_fault = clock.to_local(100.0)
        later = clock.to_local(200.0)
        # 100 s of true time after the fault accrues 100 * 1e-4 s of skew;
        # the 100 drift-free seconds before it accrued none.
        assert at_fault == pytest.approx(100.0)
        assert later - at_fault - 100.0 == pytest.approx(100.0 * 1e-4)

    def test_combined_jump_and_drift(self):
        sim = Simulator()
        clock = NodeClock(sim, offset_s=0.01, drift_ppm=10.0)
        sim.schedule(50.0, lambda: None)
        sim.run()
        before = clock.now()
        clock.apply_fault(offset_jump_s=-0.02, drift_ppm=25.0)
        assert clock.now() == pytest.approx(before - 0.02)
        assert clock.drift_ppm == 25.0


def clock_config(**overrides):
    defaults = dict(
        n_sensors=10,
        sim_time_s=20.0,
        side_m=3000.0,
        clock_offset_std_s=0.0005,
    )
    defaults.update(overrides)
    return table2_config(**defaults)


def drifted_scenario(drift_ppm_std=3.0, **overrides):
    """A clock-offset scenario whose nodes also drift, seeded per config."""
    config = clock_config(**overrides)
    scenario = Scenario(config)
    rng = np.random.default_rng(config.seed)
    for node in scenario.nodes:
        node.clock.drift_ppm = float(rng.normal(0.0, drift_ppm_std))
    return scenario


class TestScenarioClockWiring:
    def test_same_seed_reproduces_the_clock_offsets(self):
        first = Scenario(clock_config(seed=5))
        second = Scenario(clock_config(seed=5))
        assert [n.clock.offset_s for n in first.nodes] == [
            n.clock.offset_s for n in second.nodes
        ]

    def test_zero_std_keeps_clocks_synchronized(self):
        scenario = Scenario(clock_config(clock_offset_std_s=0.0))
        assert all(
            (node.clock.offset_s, node.clock.drift_ppm) == (0.0, 0.0)
            for node in scenario.nodes
        )

    def test_draw_order_contract(self):
        """One offset draw per node, in node order; a zero std draws none.

        The scenario's clock offsets are the first draws of its seeded
        ``"clocks"`` stream, and a synchronized config leaves that stream
        untouched, so its next draw equals a fresh stream's first.
        """
        config = clock_config()
        scenario = Scenario(config)
        rng = Simulator(seed=config.seed).streams.get("clocks")
        expected = [float(rng.normal(0.0, config.clock_offset_std_s)) for _ in scenario.nodes]
        assert [n.clock.offset_s for n in scenario.nodes] == expected
        assert all(n.clock.drift_ppm == 0.0 for n in scenario.nodes)

        synced = Scenario(clock_config(clock_offset_std_s=0.0))
        fresh = Simulator(seed=synced.config.seed).streams.get("clocks")
        assert synced.sim.streams.get("clocks").random() == fresh.random()


class TestDriftedScenario:
    def test_guard_time_accounting_holds_with_drift(self):
        """Worst-case slot skew over the horizon stays under omega.

        The slotted grid tolerates clock disagreement up to roughly the
        control-packet time omega before negotiated frames start missing
        their slots entirely; a 0.5 ms offset and 3 ppm drift spread must
        keep every node's |local - true| below that through the whole run.
        """
        scenario = drifted_scenario()
        assert any(node.clock.drift_ppm != 0.0 for node in scenario.nodes)
        config = scenario.config
        horizon = config.warmup_s + config.sim_time_s
        worst = max(
            abs(node.clock.to_local(horizon) - horizon) for node in scenario.nodes
        )
        assert worst < scenario.timing.omega_s

    def test_drifted_scenario_runs_and_delivers(self):
        result = drifted_scenario(sim_time_s=30.0).run_steady_state()
        assert result.throughput.total_bits > 0
