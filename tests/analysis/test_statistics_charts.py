"""Unit tests for replication statistics and ASCII charts."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.charts import ascii_chart, figure_chart
from repro.analysis.statistics import (
    Estimate,
    estimate,
    mean,
    sample_std,
)
from repro.experiments.figures import FigureData

SRC = Path(__file__).resolve().parents[2] / "src"


class TestBasics:
    def test_mean_and_std(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert sample_std([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))
        assert sample_std([5.0]) == 0.0
        with pytest.raises(ValueError):
            mean([])


class TestEstimate:
    def test_interval_contains_mean(self):
        est = estimate([1.0, 2.0, 3.0, 4.0])
        assert est.low < est.mean < est.high
        assert est.n == 4

    def test_single_value_has_infinite_width(self):
        est = estimate([5.0])
        assert est.half_width == math.inf

    def test_zero_variance_zero_width(self):
        est = estimate([2.0, 2.0, 2.0])
        assert est.half_width == 0.0

    def test_higher_confidence_wider(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert estimate(values, 0.99).half_width > estimate(values, 0.90).half_width

    def test_more_samples_tighter(self):
        narrow = estimate([1.0, 2.0] * 10)
        wide = estimate([1.0, 2.0] * 2)
        assert narrow.half_width < wide.half_width

    def test_overlap(self):
        a = Estimate(1.0, 0.5, 3, 0.95)
        b = Estimate(1.4, 0.2, 3, 0.95)
        c = Estimate(3.0, 0.2, 3, 0.95)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate([])
        with pytest.raises(ValueError):
            estimate([1.0], confidence=1.5)


class TestCharts:
    def _series(self):
        return [0.1, 0.2, 0.3], {"A": [1.0, 2.0, 3.0], "B": [3.0, 2.0, 1.0]}

    def test_chart_contains_markers_and_legend(self):
        x, series = self._series()
        chart = ascii_chart(x, series)
        assert "o A" in chart and "x B" in chart
        assert "o" in chart and "x" in chart

    def test_axis_labels_present(self):
        x, series = self._series()
        chart = ascii_chart(x, series, y_label="kbps", x_label="load")
        assert "kbps" in chart and "load" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([], {})
        with pytest.raises(ValueError):
            ascii_chart([1.0, 2.0], {"A": [1.0]})

    def test_flat_series_renders(self):
        chart = ascii_chart([0.0, 1.0], {"A": [2.0, 2.0]})
        assert "o" in chart

    def test_figure_chart_wraps_figure_data(self):
        data = FigureData(
            figure_id="fig6",
            title="Throughput",
            x_label="Offered load (kbps)",
            y_label="Throughput (kbps)",
            x_values=[0.2, 0.6, 1.0],
            series={"S-FAMA": [0.3, 0.4, 0.45], "EW-MAC": [0.31, 0.45, 0.52]},
        )
        chart = figure_chart(data)
        assert "fig6" in chart and "S-FAMA" in chart


@pytest.mark.parametrize("module", ["repro.analysis", "repro.analysis.charts"])
def test_importing_analysis_loads_no_scipy(module, tmp_path):
    """``--chart`` imports the charts module: that must not load scipy."""
    code = (
        "import importlib, sys\n"
        f"importlib.import_module({module!r})\n"
        "assert 'scipy' not in sys.modules, 'importing analysis loaded scipy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
