"""Tests for paper-reference data and the comparison report sections."""

import pytest

from repro.experiments.claims import Claims
from repro.experiments.experiments_doc import comparison_table, figure_section
from repro.experiments.engine import FigureData
from repro.experiments.figures import ALL_PLANS
from repro.experiments.paper_reference import PAPER_SERIES

MEASURED_FIG6 = {
    "S-FAMA": [0.17, 0.33, 0.40, 0.43, 0.44, 0.38],
    "ROPA": [0.16, 0.33, 0.41, 0.44, 0.47, 0.48],
    "CS-MAC": [0.16, 0.32, 0.51, 0.62, 0.60, 0.62],
    "EW-MAC": [0.17, 0.33, 0.47, 0.48, 0.49, 0.50],
}


def _figure(figure_id="fig6", x_values=(0.1, 0.2, 0.4, 0.6, 0.8, 1.0), series=None):
    row = ALL_PLANS[figure_id]
    return FigureData(
        figure_id, row.title, row.x_label, row.y_label, list(x_values),
        series or MEASURED_FIG6, notes=row.notes,
    )


class TestPaperReference:
    def test_every_paper_figure_present(self):
        assert set(PAPER_SERIES) == set(ALL_PLANS)

    def test_series_lengths_match_axes(self):
        for figure_id, series in PAPER_SERIES.items():
            assert set(series) == set(ALL_PLANS[figure_id].protocols)
            for values in series.values():
                assert len(values) == len(ALL_PLANS[figure_id].full_x)

    def test_fig9_encodes_power_ordering(self):
        claims = {c.text: c for c in ALL_PLANS["fig9a"].summarize.claims}
        claim = claims["power at the highest load: ROPA > CS-MAC > S-FAMA > EW-MAC"]
        assert claim.margin(PAPER_SERIES["fig9a"]) > 0

    def test_fig10_encodes_overhead_ordering(self):
        claims = {c.text: c for c in ALL_PLANS["fig10a"].summarize.claims}
        claim = claims["ordering S-FAMA < ROPA < EW-MAC < CS-MAC at every x"]
        assert claim.margin(PAPER_SERIES["fig10a"]) > 0

    def test_paper_series_lookup(self):
        assert PAPER_SERIES["fig6"]["EW-MAC"][-1] == pytest.approx(0.365)


class TestComparison:
    def test_comparison_table_pairs_values(self):
        table = comparison_table(_figure())
        assert "0.365 / 0.5" in table  # paper vs ours at 1.0 for EW-MAC
        assert table.count("|") > 10

    def test_claim_margins_on_one_seed(self):
        claims = {c.text: c for c in ALL_PLANS["fig6"].summarize.claims}
        assert claims["EW-MAC >= S-FAMA at the highest load"].margin(MEASURED_FIG6) > 0
        # CS-MAC still leads at the top load in this sample: EW claim fails
        assert claims["EW-MAC leads at the highest load"].margin(MEASURED_FIG6) < 0

    def test_quick_axis_off_the_paper_axis(self):
        """A quick run's x off the full-size axis shows no paper value."""
        series = {p: [100.0, 200.0, 300.0] for p in ALL_PLANS["fig8"].protocols}
        table = comparison_table(_figure("fig8", (0.1, 0.6, 1.0), series))
        assert "| 0.1 | – / 100 |" in table
        assert "| 0.6 | 42 / 200 |" in table

    def test_figure_section_lists_the_verdicts(self):
        figure = _figure()
        grid_lines = ["claim PASS (holds on 5 of n=5, p=0.0312): EW-MAC leads"]
        text = figure_section(figure, grid_lines)
        assert text.startswith("### fig6")
        assert "- claim PASS (holds on 5 of n=5, p=0.0312): EW-MAC leads" in text
        assert f"Paper: {ALL_PLANS['fig6'].notes}" in text
        assert isinstance(ALL_PLANS["fig6"].summarize, Claims)
