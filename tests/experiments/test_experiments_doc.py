"""Tests for EXPERIMENTS.md assembly and the report CLI target."""

import pytest

from repro.experiments import cli
from repro.experiments.claims import PREFIX
from repro.experiments.engine import target_groups
from repro.experiments.experiments_doc import build_experiments_md

#: A tiny two-figure report: small enough for tier-1.
TINY = ("--override", "n_sensors=10", "--override", "sim_time_s=30.0",
        "--override", "warmup_s=5.0")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """``repro-uasn report --quick`` over Figs. 6 and 11 only, no --csv."""
    out = tmp_path_factory.mktemp("report") / "EXP.md"
    groups = target_groups()
    groups["all"] = {k: groups["all"][k] for k in ("fig6", "fig11")}
    patch = pytest.MonkeyPatch()
    patch.setattr(cli, "target_groups", lambda: groups)
    try:
        status = cli.main(["report", "--quick", "--no-cache", *TINY, "--out", str(out)])
    finally:
        patch.undo()
    return status, out


def test_document_structure(report):
    status, out = report
    text = out.read_text()
    assert text.startswith("# EXPERIMENTS")
    assert "## Summary of reproduction status" in text
    assert "Known divergences" in text
    assert "### fig6" in text
    assert "### fig11" in text
    # one section per figure the run produced, in the paper's order
    assert text.count("\n### ") == 2
    assert text.index("### fig6") < text.index("### fig11")


def test_verdicts_present(report):
    text = report[1].read_text()
    assert f"- {PREFIX}" in text
    assert "EW-MAC index above 1 at high load" in text


def test_cli_report_roundtrip(report):
    status, out = report
    assert status == 0
    assert "paper vs measured" in out.read_text()


def test_cli_report_needs_no_csv(report):
    """``report`` runs the figures itself: no --csv directory is needed."""
    status, out = report
    assert status == 0
    assert [p.name for p in out.parent.iterdir()] == ["EXP.md"]


def test_empty_report_is_the_header():
    assert build_experiments_md([]).startswith("# EXPERIMENTS")
