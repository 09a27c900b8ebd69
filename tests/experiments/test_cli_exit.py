"""CLI exit codes: engine-level failures must never exit 0.

These shell out to ``python -m repro.experiments.cli`` — the same
surface CI and users invoke — rather than calling ``main()`` in-process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_malformed_override_exits_2(tmp_path):
    result = _run_cli("fig6", "--quick", "--override", "oops", cwd=tmp_path)
    assert result.returncode == 2
    assert "expected FIELD=VALUE" in result.stderr


def test_good_tiny_run_exits_0_and_reports_cache(tmp_path):
    overrides = ["--override", "n_sensors=6", "--override", "sim_time_s=3.0",
                 "--override", "warmup_s=2.0"]
    result = _run_cli("fig6", "--quick", *overrides, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "cache: 0 hit(s), 12 miss(es), 12 store(s)" in result.stdout
    again = _run_cli("fig6", "--quick", *overrides, cwd=tmp_path)
    assert again.returncode == 0
    assert "cache: 12 hit(s), 0 miss(es), 0 store(s)" in again.stdout
