"""Rerun after a timed-out attempt: the cell is the unit of recovery.

A cell whose attempt passes its wall-clock budget is dropped and rerun
from zero in a fresh :class:`Scenario`.  The contract under test is
absolute: the rerun — in this process, after the aborted attempt, or in
a fresh one — is byte-for-byte the result of a clean run.  Anything
weaker would let the recovery path silently change figures.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.des.errors import WallClockExceeded
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from tests.aborted_attempt import abort_attempt


def _quick_config(**overrides):
    defaults = dict(n_sensors=8, sim_time_s=10.0, side_m=3000.0, seed=3)
    defaults.update(overrides)
    return table2_config(**defaults)


def _unsettled(scenario: Scenario) -> int:
    return sum(len(node.modem._unsettled) for node in scenario.nodes)


class TestBitIdentity:
    def test_steady_state_rerun_after_abort_is_bit_identical(self):
        config = _quick_config()
        clean = Scenario(config).run_steady_state()
        aborted = abort_attempt(config, clean.perf.events // 3)
        assert aborted.sim.now < config.warmup_s + config.sim_time_s
        assert Scenario(config).run_steady_state().to_dict() == clean.to_dict()

    def test_batch_rerun_after_abort_reports_identical_drain_time(self):
        config = _quick_config(max_retries=100)
        clean = Scenario(config).run_batch(4, 600.0)
        baseline = clean.to_dict()
        assert "drain_time_s" in baseline
        abort_attempt(config, clean.perf.events // 2, (4, 600.0))
        assert Scenario(config).run_batch(4, 600.0).to_dict() == baseline

    def test_generous_wall_budget_changes_nothing(self):
        config = _quick_config()
        plain = Scenario(config).run_steady_state()
        budgeted = Scenario(config)
        budgeted.sim.set_wall_deadline(3600.0)
        result = budgeted.run_steady_state()
        assert result.to_dict() == plain.to_dict()
        assert result.perf.events == plain.perf.events

    @pytest.mark.parametrize("factor", [2.0, 3.0])
    def test_rerun_of_a_table2_cell_is_bit_identical(self, factor):
        # A full 60-node cell, cut 70% of the way through its events: the
        # rerun's channel reaches the configured interference range again.
        config = table2_config(sim_time_s=40.0, seed=3, interference_range_factor=factor)
        clean = Scenario(config).run_steady_state()
        abort_attempt(config, clean.perf.events * 7 // 10)
        rerun = Scenario(config)
        assert rerun.channel.interference_range_factor == factor
        assert rerun.run_steady_state().to_dict() == clean.to_dict()

    def test_rerun_after_abort_with_unsettled_arrivals_is_bit_identical(self):
        # An attempt can stop while arrivals that cannot decode even alone
        # are still in flight: they have no finish event in the heap, only
        # a place in their modem's unsettled heap, and are never settled.
        # The rerun must not see them.
        config = table2_config(sim_time_s=20.0, seed=5)
        clean = Scenario(config)
        baseline = clean.run_steady_state()
        for cut in range(250, baseline.perf.events, 250):
            if _unsettled(abort_attempt(config, cut)):
                break
        else:
            pytest.fail("no cut left an arrival unsettled")
        rerun = Scenario(config)
        assert rerun.run_steady_state().to_dict() == baseline.to_dict()
        assert _unsettled(rerun) == _unsettled(clean)
        assert [node.modem.stats for node in rerun.nodes] == [
            node.modem.stats for node in clean.nodes
        ]

    def test_rerun_here_matches_a_run_in_a_fresh_process(self, tmp_path):
        config = _quick_config(n_sensors=6, sim_time_s=6.0)
        abort_attempt(config, 60)
        rerun = Scenario(config).run_steady_state().to_dict()
        script = tmp_path / "clean_child.py"
        script.write_text(
            "import json\n"
            "from repro.experiments.config import table2_config\n"
            "from repro.experiments.scenario import Scenario\n"
            "config = table2_config(n_sensors=6, sim_time_s=6.0, side_m=3000.0,"
            " seed=3)\n"
            "print(json.dumps(Scenario(config).run_steady_state().to_dict()))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == json.loads(json.dumps(rerun))


class TestAbortedAttempt:
    def test_aborted_scenario_refuses_a_second_start(self):
        # A retry must build a fresh scenario; the dropped one cannot be
        # continued or restarted.
        scenario = abort_attempt(_quick_config(), 100)
        with pytest.raises(RuntimeError, match="already started"):
            scenario.run_steady_state()

    def test_deadline_error_names_the_time_and_event_count(self):
        scenario = Scenario(_quick_config())
        scenario.sim._WALL_CHECK_EVERY = 100
        scenario.sim.set_wall_deadline(-1.0)
        with pytest.raises(WallClockExceeded) as info:
            scenario.run_steady_state()
        stopped = re.search(r"at t=([\d.]+)s \((\d+) events\)", str(info.value))
        assert stopped is not None
        assert int(stopped.group(2)) == 100
        assert float(stopped.group(1)) == pytest.approx(scenario.sim.now, abs=1e-3)
