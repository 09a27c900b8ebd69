"""Tests for the ablation plans, the EXR setting and clock-skew injection."""

import pytest

from repro.core.ewmac.protocol import EwMac
from repro.experiments import Scenario, table2_config
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.cache import cell_key
from repro.experiments.engine import run_plans
from tests.reference_sweep import reference_sweep, run_grid

#: Shrinks every ablation cell to a few milliseconds of simulation.
TINY = {"n_sensors": 8, "sim_time_s": 10.0, "warmup_s": 2.0}


def _grid_dicts(grid):
    return {key: [r.to_dict() for r in cell] for key, cell in grid.items()}


class TestClockSkewInjection:
    def test_zero_skew_gives_perfect_clocks(self):
        scenario = Scenario(table2_config(n_sensors=10, sim_time_s=10.0))
        assert all((n.clock.offset_s, n.clock.drift_ppm) == (0.0, 0.0) for n in scenario.nodes)

    def test_skew_offsets_are_injected(self):
        scenario = Scenario(
            table2_config(n_sensors=10, sim_time_s=10.0, clock_offset_std_s=0.05)
        )
        offsets = [n.clock.offset_s for n in scenario.nodes]
        assert any(o != 0.0 for o in offsets)
        # plausible normal draws around 0 with std 0.05
        assert max(abs(o) for o in offsets) < 0.5

    def test_skewed_network_still_runs(self):
        result = Scenario(
            table2_config(
                n_sensors=15,
                sim_time_s=40.0,
                offered_load_kbps=0.6,
                clock_offset_std_s=0.02,
                seed=4,
            )
        ).run_steady_state()
        assert result.throughput_kbps >= 0.0

    def test_large_skew_hurts_throughput(self):
        """Slot misalignment beyond omega must cost real throughput."""
        base = []
        skewed = []
        for seed in (1, 2, 3):
            base.append(
                Scenario(
                    table2_config(
                        n_sensors=25, sim_time_s=120.0, offered_load_kbps=0.8, seed=seed
                    )
                ).run_steady_state().throughput_kbps
            )
            skewed.append(
                Scenario(
                    table2_config(
                        n_sensors=25,
                        sim_time_s=120.0,
                        offered_load_kbps=0.8,
                        seed=seed,
                        clock_offset_std_s=0.3,
                    )
                ).run_steady_state().throughput_kbps
            )
        assert sum(skewed) < sum(base)


class TestAblationRunners:
    def test_registry_ids_match_figure_ids(self):
        for ablation_id, factory in ALL_ABLATIONS.items():
            assert ablation_id.startswith("abl-")
            assert factory(quick=True).figure_id == ablation_id

    @pytest.mark.parametrize("ablation_id", sorted(ALL_ABLATIONS))
    def test_grid_matches_reference_sweep(self, ablation_id):
        plan = ALL_ABLATIONS[ablation_id](quick=True, overrides=TINY)
        reference = reference_sweep(plan.spec, plan.base, plan.protocols, plan.seeds)
        grid = run_grid(plan.spec, plan.base, plan.protocols, plan.seeds)
        assert list(reference) == list(grid)
        assert _grid_dicts(reference) == _grid_dicts(grid)
        data = plan.build(grid)
        assert data.figure_id == ablation_id
        assert set(data.series) == set(plan.protocols)

    def test_integer_axis_stays_integer(self):
        plan = ALL_ABLATIONS["abl-packet-size"](quick=True)
        config = plan.spec.configure(plan.base, 4096.0, "EW-MAC", 1)
        assert config == table2_config(
            protocol="EW-MAC",
            seed=1,
            data_packet_bits=4096,
            offered_load_kbps=0.6,
            sim_time_s=100.0,
        )
        assert type(config.data_packet_bits) is int

    def test_quick_seed_rules(self):
        for ablation_id, factory in ALL_ABLATIONS.items():
            keep = 2 if ablation_id == "abl-exr-randomization" else 1
            assert factory(seeds=(4, 5, 6), quick=True).seeds == (4, 5, 6)[:keep]
            assert factory(seeds=(4, 5, 6)).seeds == (4, 5, 6)

    @pytest.mark.slow
    @pytest.mark.parametrize("ablation_id", sorted(ALL_ABLATIONS))
    def test_quick_mode_runs(self, ablation_id):
        data = run_plans([ALL_ABLATIONS[ablation_id](quick=True)])[0].figure
        assert data.figure_id == ablation_id
        assert data.x_values
        for name, series in data.series.items():
            assert len(series) == len(data.x_values), name
            assert all(v >= 0.0 for v in series)


class TestExrRandomizeSetting:
    #: Large and loaded enough that EXR timing changes the outcome.
    CONFIG = table2_config(
        n_sensors=15, sim_time_s=30.0, warmup_s=2.0, offered_load_kbps=1.0
    )

    def test_config_field_equals_per_instance_flip(self):
        flipped = Scenario(self.CONFIG)
        for mac in flipped.macs:
            assert isinstance(mac, EwMac)
            mac.exr_randomize = False
        configured = Scenario(self.CONFIG.with_(exr_randomize=False))
        assert all(mac.exr_randomize is False for mac in configured.macs)
        assert (
            configured.run_steady_state().to_dict()
            == flipped.run_steady_state().to_dict()
        )

    def test_setting_changes_the_run(self):
        randomized = Scenario(self.CONFIG).run_steady_state().to_dict()
        earliest = Scenario(self.CONFIG.with_(exr_randomize=False))
        assert earliest.run_steady_state().to_dict() != randomized

    def test_cell_key_covers_the_setting(self):
        assert cell_key(self.CONFIG) != cell_key(self.CONFIG.with_(exr_randomize=False))

    def test_exr_variants_map_to_ewmac(self):
        plan = ALL_ABLATIONS["abl-exr-randomization"](quick=True)
        assert plan.protocols == ("randomized", "earliest")
        for variant, expected in (("randomized", True), ("earliest", False)):
            config = plan.spec.configure(plan.base, 0.6, variant, 1)
            assert config.protocol == "EW-MAC"
            assert config.exr_randomize is expected


class TestCliIntegration:
    def test_cli_accepts_ablation_targets(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["abl-clock-skew", "--quick"])
        assert args.target == "abl-clock-skew"

    def test_cli_chart_flag(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["fig6", "--chart"])
        assert args.chart
