"""Tests for the figure plans, sweeps, reporting and CLI."""

import pytest

from repro.experiments.config import table2_config
from repro.experiments.figures import ALL_PLANS, FigureData
from repro.experiments.report import format_figure, write_csv
from repro.experiments.engine import (
    PAPER_PROTOCOLS,
    SweepSpec,
    aggregate,
    aggregate_relative,
    mean,
    run_plans,
)
from tests.reference_sweep import run_grid


def tiny_sweep(metric=lambda r: r.throughput_kbps):
    """A very small sweep for fast structural tests."""
    base = table2_config(n_sensors=10, sim_time_s=20.0)
    spec = SweepSpec(
        x_values=[0.3, 0.6],
        configure=lambda b, x, p, s: b.with_(
            offered_load_kbps=x, protocol=p, seed=s
        ),
    )
    protocols = ("S-FAMA", "EW-MAC")
    results = run_grid(spec, base, protocols, (1,))
    return results, spec, protocols


class TestSweeps:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_run_plans_covers_grid(self):
        results, spec, protocols = tiny_sweep()
        assert set(results) == {(x, p) for x in spec.x_values for p in protocols}
        for cell in results.values():
            assert len(cell) == 1

    def test_aggregate_shapes(self):
        results, spec, protocols = tiny_sweep()
        series = aggregate(results, spec.x_values, protocols, lambda r: r.throughput_kbps)
        assert set(series) == set(protocols)
        assert all(len(v) == 2 for v in series.values())

    def test_aggregate_relative_baseline_is_one(self):
        results, spec, protocols = tiny_sweep()
        series = aggregate_relative(
            results, spec.x_values, protocols, lambda r: r.overhead_units
        )
        assert series["S-FAMA"] == pytest.approx([1.0, 1.0])

    def test_aggregate_relative_rejects_missing_baseline(self):
        results, spec, protocols = tiny_sweep()
        with pytest.raises(ValueError, match="baseline protocol 'ALOHA'"):
            aggregate_relative(
                results,
                spec.x_values,
                protocols,
                lambda r: r.overhead_units,
                baseline_protocol="ALOHA",
            )

    def test_aggregate_relative_default_baseline_must_be_swept(self):
        results, spec, protocols = tiny_sweep()
        # drop the default S-FAMA baseline from the protocol set
        with pytest.raises(ValueError, match="S-FAMA"):
            aggregate_relative(
                results, spec.x_values, ("EW-MAC",), lambda r: r.overhead_units
            )

    def test_aggregate_relative_rejects_zero_baseline(self):
        results, spec, protocols = tiny_sweep()
        with pytest.raises(ValueError, match=r"baseline protocol 'S-FAMA'.* x=0\.3"):
            aggregate_relative(
                results,
                spec.x_values,
                protocols,
                lambda r: 0.0 if r.protocol == "S-FAMA" else 1.0,
            )

    @pytest.mark.parametrize("base", [-1.0, float("nan")])
    def test_aggregate_relative_rejects_non_positive_baseline(self, base):
        grid = {(0.3, "S-FAMA"): [base], (0.3, "EW-MAC"): [1.0]}
        with pytest.raises(ValueError, match=r"baseline protocol 'S-FAMA'.* x=0\.3"):
            aggregate_relative(grid, [0.3], ("S-FAMA", "EW-MAC"), lambda r: r)

    def test_progress_callback_called(self):
        messages = []
        base = table2_config(n_sensors=8, sim_time_s=10.0)
        spec = SweepSpec(
            x_values=[0.5],
            configure=lambda b, x, p, s: b.with_(offered_load_kbps=x, protocol=p, seed=s),
        )
        run_grid(spec, base, ("S-FAMA",), (1,), progress=messages.append)
        assert len(messages) == 1


class TestFigureRunners:
    def test_registry_covers_every_figure(self):
        assert set(ALL_PLANS) == {
            "fig6", "fig7", "fig8", "fig9a", "fig9b", "fig10a", "fig10b", "fig11",
        }
        assert all(row.notes for row in ALL_PLANS.values())

    @pytest.mark.slow
    @pytest.mark.parametrize("figure_id", sorted(ALL_PLANS))
    def test_quick_mode_produces_full_series(self, figure_id):
        data = run_plans([ALL_PLANS[figure_id](quick=True)])[0].figure
        assert isinstance(data, FigureData)
        assert data.figure_id == figure_id
        assert set(data.series) == set(PAPER_PROTOCOLS)
        for series in data.series.values():
            assert len(series) == len(data.x_values)
        assert data.notes


class TestReporting:
    def _data(self):
        return FigureData(
            figure_id="figX",
            title="Example",
            x_label="Load",
            y_label="Throughput",
            x_values=[0.1, 0.2],
            series={"S-FAMA": [1.0, 2.0], "EW-MAC": [1.5, 2.5]},
            notes="paper says something",
        )

    def test_format_figure_contains_everything(self):
        text = format_figure(self._data())
        assert "figX" in text and "Example" in text
        assert "S-FAMA" in text and "EW-MAC" in text
        assert "2.5" in text
        assert "paper says" in text

    def test_value_lookup(self):
        data = self._data()
        assert data.value("EW-MAC", 0.2) == 2.5
        with pytest.raises(ValueError):
            data.value("EW-MAC", 9.9)

    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(self._data(), tmp_path / "sub" / "figX.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "Load,S-FAMA,EW-MAC"
        assert content[1] == "0.1,1.0,1.5"
        assert content[2] == "0.2,2.0,2.5"


class TestCli:
    def test_table2_prints(self, capsys):
        from repro.experiments.cli import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "number_of_sensors" in out

    def test_parser_rejects_unknown_target(self):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_parser_accepts_options(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["fig6", "--quick", "--seeds", "2"])
        assert args.target == "fig6" and args.quick and args.seeds == 2
