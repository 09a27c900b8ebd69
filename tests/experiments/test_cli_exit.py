"""CLI exit codes: engine-level failures must never exit 0.

Most of these shell out to ``python -m repro.experiments.cli`` — the same
surface CI and users invoke.  A test that patches the simulation to fail
calls ``main()`` in-process instead.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.figures import ALL_PLANS
from repro.experiments.scenario import Scenario

SRC = Path(__file__).resolve().parents[2] / "src"


def _run_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cwd / ".cache")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_invalid_override_value_exits_2(tmp_path):
    result = _run_cli(
        "fig6", "--quick", "--no-cache", "--override", "n_sensors=-5", cwd=tmp_path
    )
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "at least one sensor" in result.stderr


def test_infinite_sim_time_override_exits_2(tmp_path):
    result = _run_cli(
        "fig6", "--quick", "--override", "sim_time_s=1e999", cwd=tmp_path
    )
    assert result.returncode == 2
    assert "sim_time_s must be finite and positive" in result.stderr


def test_unknown_override_field_exits_2(tmp_path):
    result = _run_cli(
        "fig6", "--quick", "--no-cache", "--override", "bogus_field=1", cwd=tmp_path
    )
    assert result.returncode == 2
    assert "unknown config override" in result.stderr


@pytest.mark.parametrize(
    "pair, message",
    [
        # An int field given a float: every cell would fail to build.
        ("n_sensors=6.5", "n_sensors must be an int, got 6.5"),
        # The fault plan is data, not a scalar: no override reaches it.
        ("faults=x", "faults takes no override"),
        # A truthy string would have run *with* mobility.
        ("mobility=no", "mobility must be a bool, got 'no'"),
    ],
)
def test_override_of_the_wrong_type_exits_2(tmp_path, pair, message):
    result = _run_cli("fig6", "--quick", "--no-cache", "--override", pair, cwd=tmp_path)
    assert result.returncode == 2
    assert f"bad config override: {message}" in result.stderr
    assert "Traceback" not in result.stderr


def test_malformed_override_exits_2(tmp_path):
    result = _run_cli("fig6", "--quick", "--override", "oops", cwd=tmp_path)
    assert result.returncode == 2
    assert "expected FIELD=VALUE" in result.stderr


def test_relative_figure_with_zero_baseline_exits_2(tmp_path):
    # Too short a window for any delivery: every S-FAMA efficiency is 0.
    result = _run_cli(
        "fig11", "--quick", "--no-cache",
        "--override", "n_sensors=6",
        "--override", "sim_time_s=3.0",
        "--override", "warmup_s=2.0",
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert "baseline protocol 'S-FAMA'" in result.stderr
    assert "x=0.2" in result.stderr
    assert "Efficiency index" not in result.stdout


def test_zero_baseline_costs_only_its_figure(tmp_path):
    # The same overrides over every paper figure: only fig11 divides by
    # S-FAMA's zero efficiency.  Every other figure is still printed.
    result = _run_cli("all", "--quick", *_TINY, cwd=tmp_path)
    assert result.returncode == 2
    for target, row in ALL_PLANS.items():
        assert (f"{target}: {row.title}" in result.stdout) == (target != "fig11")
    assert re.search(
        r"^error: fig11: ValueError: baseline protocol 'S-FAMA' .* x=0\.2",
        result.stderr,
        re.MULTILINE,
    )
    # The same run as a report, from the cache: no record is written.
    report = _run_cli("report", "--quick", *_TINY, "--out", "record.md", cwd=tmp_path)
    assert report.returncode == 2
    assert report.stdout.replace("76 hit(s), 0 miss(es), 0 store(s)", "") == (
        result.stdout.replace("0 hit(s), 76 miss(es), 76 store(s)", "")
    )
    assert not (tmp_path / "record.md").exists()


def test_good_tiny_run_exits_0_and_reports_cache(tmp_path):
    overrides = ["--override", "n_sensors=6", "--override", "sim_time_s=3.0",
                 "--override", "warmup_s=2.0"]
    result = _run_cli("fig6", "--quick", *overrides, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "cache: 0 hit(s), 12 miss(es), 12 store(s)" in result.stdout
    again = _run_cli("fig6", "--quick", *overrides, cwd=tmp_path)
    assert again.returncode == 0
    assert "cache: 12 hit(s), 0 miss(es), 0 store(s)" in again.stdout


@pytest.mark.parametrize(
    "target, flags",
    [
        ("scale", ["--workers", "2"]),
        ("scale", ["--override", "n_sensors=20"]),
        ("scale", ["--cell-timeout", "9"]),
    ],
)
def test_engine_flags_on_direct_targets_exit_2(tmp_path, target, flags):
    # Scale times its cells directly; a sweep-engine flag it cannot
    # honour is refused, not silently dropped.
    result = _run_cli(target, "--quick", *flags, cwd=tmp_path)
    assert result.returncode == 2
    assert f"{flags[0]} is not supported by target {target!r}" in result.stderr


@pytest.mark.parametrize("target", ["fig6", "fig8", "scale", "abl-aloha", "chaos"])
def test_checkpoint_every_is_an_unknown_flag(tmp_path, target):
    # The cell is the unit of recovery: there is no mid-cell checkpoint,
    # so the old flag is refused before anything runs.
    result = _run_cli(target, "--quick", "--checkpoint-every", "5", cwd=tmp_path)
    assert result.returncode == 2
    assert "unrecognized arguments: --checkpoint-every 5" in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / ".cache").exists()


_TINY = ["--override", "n_sensors=6", "--override", "sim_time_s=3.0",
         "--override", "warmup_s=2.0"]


@pytest.mark.parametrize(
    "target, flags",
    [
        ("abl-aloha", ["--override", "n_sensors=5"]),
        ("abl-aloha", ["--cell-timeout", "60"]),
        ("abl-aloha", ["--workers", "2"]),
        ("ablations", ["--override", "n_sensors=5"]),
    ],
)
def test_engine_flags_on_ablation_targets_are_honoured(tmp_path, target, flags):
    # Ablations run through the sweep engine, so the flags that scale
    # refuses are accepted and applied.
    result = _run_cli(target, "--quick", *_TINY, *flags, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "is not supported by target" not in result.stderr
    # A cold cache: every distinct cell went through the engine once.
    match = re.search(r"cache: \d+ hit\(s\), (\d+) miss\(es\)", result.stdout)
    assert match is not None, result.stdout
    assert int(match.group(1)) > 0


def _tables(stdout: str) -> str:
    """The printed figure tables, without the cache accounting line."""
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("  cache:")
    )


def test_ablation_runs_through_the_sweep_engine(tmp_path):
    # Ablations are figure plans: pooled workers, overrides and the
    # result cache apply to them exactly as to the paper figures.
    overrides = ["--override", "n_sensors=6", "--override", "sim_time_s=3.0",
                 "--override", "warmup_s=2.0"]
    pooled = _run_cli("abl-aloha", "--quick", "--workers", "2", *overrides, cwd=tmp_path)
    assert pooled.returncode == 0, pooled.stderr
    assert "cache: 0 hit(s), 6 miss(es), 6 store(s)" in pooled.stdout
    serial = _run_cli(
        "abl-aloha", "--quick", "--workers", "1", "--no-cache", *overrides, cwd=tmp_path
    )
    assert serial.returncode == 0, serial.stderr
    assert "abl-aloha" in serial.stdout
    assert _tables(pooled.stdout) == _tables(serial.stdout)
    again = _run_cli("abl-aloha", "--quick", "--workers", "2", *overrides, cwd=tmp_path)
    assert again.returncode == 0, again.stderr
    assert "cache: 6 hit(s), 0 miss(es), 0 store(s)" in again.stdout
    assert _tables(again.stdout) == _tables(serial.stdout)


def test_failing_cell_exits_1_with_cache_off(monkeypatch, capsys):
    # A cell that raises is a sweep failure (exit 1), the same with the
    # cache on or off, never a bad invocation (exit 2).
    real = Scenario.run_steady_state

    def run_steady_state(self, *args, **kwargs):
        if self.config.protocol == "EW-MAC" and self.config.offered_load_kbps == 0.6:
            raise ValueError("synthetic cell failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "run_steady_state", run_steady_state)
    argv = ["fig6", "--quick", "--no-cache", "--override", "n_sensors=6",
            "--override", "sim_time_s=3.0", "--override", "warmup_s=2.0"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert (
        "FAIL: cell EW-MAC x=0.6 seed=1 failed permanently: "
        "ValueError: synthetic cell failure"
    ) in err



@pytest.mark.parametrize("no_cache", [True, False], ids=["cache-off", "cache-on"])
def test_failing_ablation_cell_exits_1(monkeypatch, capsys, tmp_path, no_cache):
    # An ablation cell that raises is a CellFailure and exit 1, the
    # figures' failure model, whether or not the cache is consulted.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / ".cache"))
    real = Scenario.run_steady_state

    def run_steady_state(self, *args, **kwargs):
        if self.config.protocol == "ALOHA" and self.config.offered_load_kbps == 1.0:
            raise ValueError("synthetic cell failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "run_steady_state", run_steady_state)
    argv = ["abl-aloha", "--quick", *_TINY] + (["--no-cache"] if no_cache else [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert (
        "FAIL: cell ALOHA x=1.0 seed=1 failed permanently: "
        "ValueError: synthetic cell failure"
    ) in err
