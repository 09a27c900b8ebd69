"""Tests for the perf instrumentation layer (repro.perf + CLI --profile)."""

from dataclasses import MISSING, fields
from types import SimpleNamespace

import pytest

from repro.experiments.cli import main
from repro.experiments.config import table2_config
from repro.experiments.scenario import run_scenario
from repro.perf import GLOBAL_PERF, PerfAccumulator, PerfReport
from repro.phy.channel import ChannelStats


def make_report(**overrides):
    base = dict(
        sim_time_s=300.0,
        wall_time_s=2.0,
        events=100_000,
        broadcasts=4_000,
        deliveries=20_000,
        out_of_range_skips=1_000,
        cache_hits=18_000,
        cache_misses=2_000,
    )
    base.update(overrides)
    return PerfReport(**base)


class TestPerfReport:
    def test_derived_rates(self):
        report = make_report()
        assert report.events_per_second == pytest.approx(50_000.0)
        assert report.broadcasts_per_second == pytest.approx(2_000.0)
        assert report.cache_hit_rate == pytest.approx(0.9)
        assert report.speedup_factor == pytest.approx(150.0)

    def test_zero_wall_time_is_safe(self):
        report = make_report(wall_time_s=0.0, cache_hits=0, cache_misses=0)
        assert report.events_per_second == 0.0
        assert report.broadcasts_per_second == 0.0
        assert report.cache_hit_rate == 0.0
        assert report.speedup_factor == 0.0

    def test_to_dict_round_trip(self):
        data = make_report().to_dict()
        assert data["events"] == 100_000
        assert data["cache_hit_rate"] == pytest.approx(0.9)
        assert all(isinstance(v, (int, float)) for v in data.values())

    def test_summary_lines_mention_key_counters(self):
        text = "\n".join(make_report().summary_lines())
        assert "events" in text
        assert "link cache" in text
        assert "90.0%" in text

    def test_capture_from_scenario_run(self):
        result = run_scenario(table2_config(sim_time_s=20.0, seed=3))
        perf = result.perf
        assert perf is not None
        assert perf.sim_time_s == pytest.approx(20.0)
        assert perf.wall_time_s > 0.0
        assert perf.events > 0
        assert perf.broadcasts > 0
        assert perf.cache_hits + perf.cache_misses > 0

    def test_bulk_and_grid_counters_surface(self):
        report = make_report(grid_candidates=12_000, bulk_pushes=3, bulk_events=42)
        data = report.to_dict()
        assert data["grid_candidates"] == 12_000
        assert data["bulk_pushes"] == 3
        assert data["bulk_events"] == 42
        text = "\n".join(report.summary_lines())
        assert "3.0 mean candidates/broadcast" in text
        assert "bulk schedule: 3 pushes, 42 events (14.0 per push)" in text

    def test_capture_counts_bulk_fanout_on_mobile_run(self):
        result = run_scenario(
            table2_config(sim_time_s=20.0, seed=3, mobility=True)
        )
        perf = result.perf
        assert perf.bulk_pushes > 0
        assert perf.bulk_events >= perf.bulk_pushes

    def test_perf_excluded_from_to_dict(self):
        # Figure metrics must stay machine-independent and identical with
        # the cache on/off; wall time in to_dict would break both.
        result = run_scenario(table2_config(sim_time_s=20.0, seed=3))
        assert not any("wall" in key or "cache" in key for key in result.to_dict())


    def test_every_result_carries_perf(self):
        from repro.experiments.scenario import ScenarioResult

        perf = next(f for f in fields(ScenarioResult) if f.name == "perf")
        assert perf.default is MISSING and perf.default_factory is MISSING

    def test_scale_columns_read_the_perf_report(self):
        from repro.experiments.scale import scale

        series = scale(quick=True).series
        assert series["cache_hit_pct"] == [9.13, 8.94]
        assert series["grid_candidates_mean"] == [79.2, 87.1]


class TestPerfAccumulator:
    def test_merge_adds_counters_and_recomputes_rates(self):
        acc = PerfAccumulator()
        acc.add(make_report(bulk_pushes=2, bulk_events=10, grid_candidates=5))
        acc.add(
            make_report(
                wall_time_s=6.0,
                events=300_000,
                bulk_pushes=3,
                bulk_events=20,
                grid_candidates=7,
            )
        )
        merged = acc.merged()
        assert acc.runs == 2
        assert merged.events == 400_000
        assert merged.wall_time_s == pytest.approx(8.0)
        assert merged.events_per_second == pytest.approx(50_000.0)
        assert merged.bulk_pushes == 5
        assert merged.bulk_events == 30
        assert merged.grid_candidates == 12

    def test_every_field_survives_capture_add_merged_to_dict(self):
        # Distinct values per field catch a counter dropped or read from
        # the wrong source anywhere along the pipeline.
        values = {f.name: 10 * (i + 1) for i, f in enumerate(fields(PerfReport))}
        values["wall_time_s"] = 2.5
        sim = SimpleNamespace(
            wall_time_s=values["wall_time_s"], events_processed=values["events"]
        )
        channel_stats = ChannelStats(
            **{f.name: values[f.name] for f in fields(ChannelStats)}
        )
        report = PerfReport.capture(sim, channel_stats, values["sim_time_s"])
        acc = PerfAccumulator()
        acc.add(report)
        acc.add(report)
        data = acc.merged().to_dict()
        for name, value in values.items():
            # grid_cells is a gauge (peak); everything else sums.
            expected = value if name == "grid_cells" else 2 * value
            assert data[name] == expected, name
        derived = {
            "events_per_second",
            "broadcasts_per_second",
            "cache_hit_rate",
            "speedup_factor",
        }
        assert set(data) == set(values) | derived

    def test_empty_accumulator_merges_to_zeros(self):
        merged = PerfAccumulator().merged()
        assert merged.events == 0
        assert merged.events_per_second == 0.0

    def test_reset(self):
        acc = PerfAccumulator()
        acc.add(make_report())
        acc.reset()
        assert acc.runs == 0
        assert acc.merged().events == 0

    def test_global_accumulator_fed_by_scenarios(self):
        GLOBAL_PERF.reset()
        run_scenario(table2_config(sim_time_s=20.0, seed=3))
        run_scenario(table2_config(sim_time_s=20.0, seed=4))
        assert GLOBAL_PERF.runs == 2
        assert GLOBAL_PERF.merged().events > 0


class TestProfileFlag:
    def test_profile_prints_counters_and_hotspots(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig6", "--quick", "--seeds", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "runs: 12" in out  # 3 loads x 4 protocols x 1 seed, all in-process
        assert "link cache" in out
        assert "cProfile (top 25 by cumulative time)" in out
        assert "cumulative" in out
