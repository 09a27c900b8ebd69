"""Claim rows and their per-seed sign-test verdicts."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.claims import (
    PREFIX,
    Claim,
    Claims,
    Verdicts,
    seed_series,
    sign_test,
    verdict,
)
from repro.experiments.figures import ALL_PLANS
from repro.experiments.paper_reference import PAPER_SERIES

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``sign_test(k, n)``: P(at least k heads in n fair flips), worked by hand.
SIGN_TEST = {
    (0, 0): Fraction(1),
    (1, 1): Fraction(1, 2),
    (0, 1): Fraction(1),
    (2, 2): Fraction(1, 4),
    (1, 2): Fraction(3, 4),
    (3, 3): Fraction(1, 8),
    (2, 3): Fraction(1, 2),
    (1, 3): Fraction(7, 8),
    (4, 4): Fraction(1, 16),
    (3, 4): Fraction(5, 16),
    (2, 4): Fraction(11, 16),
    (5, 5): Fraction(1, 32),
    (4, 5): Fraction(6, 32),
    (3, 5): Fraction(16, 32),
    (6, 6): Fraction(1, 64),
    (5, 6): Fraction(7, 64),
    (4, 6): Fraction(22, 64),
    (7, 7): Fraction(1, 128),
    (6, 7): Fraction(8, 128),
    (5, 7): Fraction(29, 128),
    (8, 8): Fraction(1, 256),
    (7, 8): Fraction(9, 256),
    (6, 8): Fraction(37, 256),
    (0, 8): Fraction(1),
}

#: Every claim the old seed-averaged checker tested, by figure.
CHECKED_CLAIMS = (
    ("fig6", "EW-MAC >= S-FAMA at the highest load"),
    ("fig6", "CS-MAC leads at mid loads"),
    ("fig6", "EW-MAC leads at the highest load"),
    ("fig7", "protocol spread narrows (or stays bounded) as density rises"),
    ("fig8", "drain time grows with load for every protocol"),
    ("fig8", "EW-MAC drains no slower than S-FAMA at the top load"),
    ("fig9a", "two-hop protocols (ROPA, CS-MAC) draw more power than EW-MAC"),
    ("fig9a", "EW-MAC <= S-FAMA power"),
    ("fig9b", "two-hop protocols (ROPA, CS-MAC) draw more power than EW-MAC"),
    ("fig9b", "EW-MAC <= S-FAMA power"),
    ("fig10a", "ordering S-FAMA < ROPA < EW-MAC < CS-MAC at every x"),
    ("fig10b", "ordering S-FAMA < ROPA < EW-MAC < CS-MAC at every x"),
    ("fig11", "EW-MAC has the best efficiency index at high load"),
    ("fig11", "EW-MAC index above 1 at high load"),
)


def _grid(by_seed, xs=(0.2, 0.6, 1.0)):
    """A fake grid: ``by_seed[seed][protocol]`` is that seed's per-x series."""
    protocols = list(next(iter(by_seed.values())))
    return {
        (x, protocol): [
            SimpleNamespace(config=SimpleNamespace(seed=seed), value=series[protocol][i])
            for seed, series in by_seed.items()
        ]
        for i, x in enumerate(xs)
        for protocol in protocols
    }


def _row(relative=False):
    return SimpleNamespace(metric=lambda r: r.value, relative=relative)


EW_ABOVE = Claim("EW-MAC above S-FAMA at the top x", lambda s: s["EW-MAC"][-1] - s["S-FAMA"][-1])


def _seeds(n, ew_top):
    return {
        seed: {"S-FAMA": [1.0, 1.0, 1.0], "EW-MAC": [1.0, 1.0, ew_top(seed)]}
        for seed in range(1, n + 1)
    }


class TestSignTest:
    @pytest.mark.parametrize("k,n", sorted(SIGN_TEST))
    def test_exact_p_values(self, k, n):
        assert sign_test(k, n) == pytest.approx(float(SIGN_TEST[(k, n)]), abs=0, rel=1e-15)

    @pytest.mark.parametrize("n", range(9))
    def test_all_positive_is_two_to_the_minus_n(self, n):
        assert sign_test(n, n) == 2.0**-n


class TestVerdict:
    def test_five_agreeing_seeds_pass(self):
        result = verdict("c", [0.1, 2.0, 0.3, 1e-9, 5.0])
        assert (result.outcome, result.n, result.holds, result.p) == ("PASS", 5, 5, 1 / 32)

    def test_five_contradicting_seeds_fail(self):
        result = verdict("c", [-1.0] * 5)
        assert (result.outcome, result.n, result.holds, result.p) == ("FAIL", 5, 0, 1 / 32)

    def test_three_seeds_are_never_conclusive(self):
        for margins in ([1.0] * 3, [-1.0] * 3):
            result = verdict("c", margins)
            assert result.outcome == "INCONCLUSIVE"
            assert result.p == 1 / 8

    def test_one_dissenting_seed_of_five_is_inconclusive(self):
        result = verdict("c", [1.0, 1.0, 1.0, 1.0, -1.0])
        assert (result.outcome, result.holds, result.p) == ("INCONCLUSIVE", 4, 6 / 32)

    def test_zero_margins_are_dropped(self):
        result = verdict("c", [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0])
        assert (result.outcome, result.n, result.p) == ("PASS", 5, 1 / 32)

    def test_no_seeds(self):
        result = verdict("c", [])
        assert (result.outcome, result.n, result.p) == ("INCONCLUSIVE", 0, 1.0)

    def test_line_names_outcome_n_and_p(self):
        line = verdict("EW-MAC leads", [1.0] * 5).line()
        assert line == "claim PASS (holds on 5 of n=5, p=0.0312): EW-MAC leads"
        assert line.startswith(PREFIX)


class TestClaimsOnGrids:
    def test_pass_grid(self):
        verdicts = Claims(EW_ABOVE)(_row(), _grid(_seeds(5, lambda s: 1.0 + s)))
        assert [v.outcome for v in verdicts.verdicts] == ["PASS"]

    def test_fail_grid(self):
        verdicts = Claims(EW_ABOVE)(_row(), _grid(_seeds(6, lambda s: 0.5)))
        assert [v.outcome for v in verdicts.verdicts] == ["FAIL"]
        assert verdicts.verdicts[0].p == 1 / 64

    def test_inconclusive_grid(self):
        grid = _grid(_seeds(6, lambda s: 2.0 if s % 2 else 0.5))
        verdict_ = Claims(EW_ABOVE)(_row(), grid).verdicts[0]
        assert (verdict_.outcome, verdict_.n, verdict_.holds) == ("INCONCLUSIVE", 6, 3)

    def test_a_failed_claim_is_no_engine_failure(self):
        verdicts = Claims(EW_ABOVE)(_row(), _grid(_seeds(6, lambda s: 0.5)))
        assert isinstance(verdicts, Verdicts)
        assert verdicts.failure() is None
        assert verdicts.lines() == [v.line() for v in verdicts.verdicts]

    def test_a_failed_cell_drops_only_its_own_seed(self):
        grid = _grid(_seeds(5, lambda s: 10.0 * s))
        # Seed 3's run of one cell failed; the others arrive out of order.
        cell = grid[(0.6, "EW-MAC")]
        grid[(0.6, "EW-MAC")] = [r for r in reversed(cell) if r.config.seed != 3]
        seeds = seed_series(grid, lambda r: r.value)
        assert [s["EW-MAC"][-1] for s in seeds] == [10.0, 20.0, 40.0, 50.0]
        assert all(s["EW-MAC"][:2] == [1.0, 1.0] for s in seeds)
        assert Claims(EW_ABOVE)(_row(), grid).verdicts[0].n == 4

    def test_a_cell_with_no_runs_drops_every_seed(self):
        grid = _grid(_seeds(5, lambda s: 2.0))
        grid[(1.0, "S-FAMA")] = []
        assert seed_series(grid, lambda r: r.value) == []
        assert Claims(EW_ABOVE)(_row(), grid).verdicts[0].outcome == "INCONCLUSIVE"

    def test_relative_row_divides_by_each_seeds_own_s_fama(self):
        by_seed = {
            1: {"S-FAMA": [1.0, 1.0, 1.0], "EW-MAC": [1.0, 1.0, 2.0]},
            2: {"S-FAMA": [1.0, 1.0, 4.0], "EW-MAC": [1.0, 1.0, 2.0]},
        }
        seeds = seed_series(_grid(by_seed), lambda r: r.value, relative=True)
        # Per seed: 2/1 and 2/4 -- not the ratio of the means, 2/2.5.
        assert [s["EW-MAC"][-1] for s in seeds] == [2.0, 0.5]
        assert [s["S-FAMA"] for s in seeds] == [[1.0, 1.0, 1.0]] * 2
        index_above_1 = Claim("above 1", lambda s: s["EW-MAC"][-1] - 1.0)
        verdict_ = Claims(index_above_1)(_row(relative=True), _grid(by_seed)).verdicts[0]
        assert (verdict_.n, verdict_.holds) == (2, 1)

    def test_relative_row_drops_a_seed_with_zero_s_fama(self):
        by_seed = {
            1: {"S-FAMA": [1.0, 0.0, 1.0], "EW-MAC": [1.0, 1.0, 2.0]},
            2: {"S-FAMA": [1.0, 1.0, 1.0], "EW-MAC": [1.0, 1.0, 3.0]},
        }
        seeds = seed_series(_grid(by_seed), lambda r: r.value, relative=True)
        assert [s["EW-MAC"][-1] for s in seeds] == [3.0]


class TestClaimRows:
    @pytest.mark.parametrize("figure_id,text", CHECKED_CLAIMS)
    def test_checked_claims_are_rows(self, figure_id, text):
        assert text in [c.text for c in ALL_PLANS[figure_id].summarize.claims]

    def test_every_figure_has_claims(self):
        for row in ALL_PLANS.values():
            assert isinstance(row.summarize, Claims) and row.summarize.claims

    @pytest.mark.parametrize("figure_id", sorted(ALL_PLANS))
    def test_the_papers_own_series_satisfy_every_claim(self, figure_id):
        """The claims encode the paper: its published curves hold them all."""
        published = {p: list(v) for p, v in PAPER_SERIES[figure_id].items()}
        for claim in ALL_PLANS[figure_id].summarize.claims:
            assert claim.margin(published) > 0, claim.text

    def test_fig6_encodes_the_crossover(self):
        """CS-MAC best at 0.6 kbps, EW-MAC best at 1.0 kbps."""
        claims = {c.text: c for c in ALL_PLANS["fig6"].summarize.claims}
        published = PAPER_SERIES["fig6"]
        assert claims["CS-MAC leads at mid loads"].margin(published) > 0
        assert claims["EW-MAC leads at the highest load"].margin(published) > 0


TINY = ("--override", "n_sensors=6", "--override", "sim_time_s=3.0",
        "--override", "warmup_s=2.0")


def test_cli_prints_one_verdict_line_per_claim(capsys):
    from repro.experiments.cli import main

    assert main(["fig6", "--quick", "--no-cache", *TINY]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("  " + PREFIX)]
    assert len(lines) == len(ALL_PLANS["fig6"].summarize.claims)


def test_a_figure_run_never_loads_scipy(tmp_path):
    """The claim verdicts run on every figure sweep: no scipy on that path."""
    code = (
        "import sys\n"
        "from repro.experiments import engine\n"
        "result = engine.run_request(engine.SweepRequest('fig6', quick=True, "
        "seeds=(1,), overrides=(('n_sensors', 6), ('sim_time_s', 3.0), "
        "('warmup_s', 2.0))))\n"
        "assert result.summary_lines, 'no claim verdicts'\n"
        "assert 'scipy' not in sys.modules, 'a figure run imported scipy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
