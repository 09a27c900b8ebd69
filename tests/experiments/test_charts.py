"""Unit tests for the ASCII figure charts (``--chart``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.charts import ascii_chart, figure_chart
from repro.experiments.figures import FigureData

SRC = Path(__file__).resolve().parents[2] / "src"


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


def test_importing_charts_loads_no_scipy(tmp_path):
    """``--chart`` imports the charts module: that must not load scipy."""
    code = (
        "import importlib, sys\n"
        "importlib.import_module('repro.experiments.charts')\n"
        "assert 'scipy' not in sys.modules, 'importing the charts loaded scipy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
