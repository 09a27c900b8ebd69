"""The pure engine layer: purity, request keys, and service equivalence."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.chaos import ChaosSummary
from repro.experiments.engine import (
    EngineError,
    SweepRequest,
    apply_overrides,
    observe_sweeps,
    request_key,
    request_plan,
    run_plans,
    run_request,
    service_targets,
)
from repro.experiments.figures import ALL_PLANS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Small enough for tier-1: 12 cells of a 6-node, 3-second scenario.
TINY = {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0}


def test_importing_engine_is_pure(tmp_path):
    """Importing the engine writes nothing, prints nothing, reads no argv."""
    code = (
        "import sys\n"
        "sys.argv = ['weird-binary', '--definitely-not-a-flag', 'fig999']\n"
        "import repro.experiments.engine\n"
        "import repro.experiments\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert result.stderr == ""
    assert list(tmp_path.iterdir()) == [], "import created files in cwd"


class TestSweepRequest:
    def test_from_dict_normalizes(self):
        request = SweepRequest.from_dict(
            {"target": "fig6", "quick": True, "seeds": [2, 1], "overrides": TINY}
        )
        assert request.target == "fig6"
        assert request.seeds == (2, 1)
        assert dict(request.overrides) == TINY
        round_tripped = SweepRequest.from_dict(request.to_dict())
        assert round_tripped == request

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"target": "fig6", "seeds": []},
            {"target": "fig6", "seeds": ["one"]},
            {"target": "fig6", "quick": "yes"},
            {"target": "fig6", "surprise": 1},
            {"target": "fig6", "overrides": {"n": [1, 2]}},
            {"target": "fig6", "overrides": "n_sensors=6"},
        ],
    )
    def test_from_dict_rejects_bad_payloads(self, payload):
        with pytest.raises(EngineError):
            SweepRequest.from_dict(payload)

    def test_unknown_target_rejected_at_planning(self):
        request = SweepRequest(target="fig999", quick=True, seeds=(1,))
        with pytest.raises(EngineError, match="unknown target"):
            request_plan(request)
        with pytest.raises(EngineError, match="unknown target"):
            request_key(request)

    def test_service_targets_cover_figures_and_chaos(self):
        targets = service_targets()
        assert "fig6" in targets
        assert "abl-aloha" in targets
        assert "chaos" in targets
        for target in targets:
            plan = request_plan(SweepRequest(target=target, quick=True, seeds=(1,)))
            assert plan.n_cells > 0


class TestSeedRule:
    """An unset seed list means the target row's own seeds, everywhere."""

    def test_request_without_seeds_uses_the_rows_seeds(self):
        request = SweepRequest.from_dict({"target": "abl-exr-randomization"})
        assert request.seeds is None
        assert request_plan(request).seeds == (1, 2, 3, 4, 5)
        assert SweepRequest.from_dict(request.to_dict()) == request
        assert request_plan(SweepRequest("abl-exr-randomization")).seeds == (1, 2, 3, 4, 5)

    def test_null_seeds_are_the_rows_seeds(self):
        request = SweepRequest.from_dict({"target": "abl-exr-randomization", "seeds": None})
        assert request_plan(request).seeds == (1, 2, 3, 4, 5)

    def test_quick_keeps_the_rows_quick_seeds(self):
        plan = request_plan(SweepRequest("abl-exr-randomization", quick=True))
        assert plan.seeds == (1, 2)

    def test_explicit_seeds_win(self):
        request = SweepRequest.from_dict({"target": "abl-exr-randomization", "seeds": [2]})
        assert request_plan(request).seeds == (2,)

    @pytest.mark.parametrize(
        "argv,seeds",
        [
            (["abl-exr-randomization"], (1, 2, 3, 4, 5)),
            (["abl-exr-randomization", "--seeds", "2"], (1, 2)),
            (["fig6"], (1, 2, 3)),
        ],
    )
    def test_cli_plans_use_the_rows_seeds(self, monkeypatch, argv, seeds):
        from repro.experiments import cli
        from repro.experiments.engine import FigureData, PlanOutcome

        planned = []

        def fake_run_plans(plans, **kwargs):
            planned.extend(plans)
            return [
                PlanOutcome(
                    FigureData(plan.figure_id, "", "x", "y", [1.0], {"P": [0.0]}), None
                )
                for plan in plans
            ]

        monkeypatch.setattr(cli, "run_plans", fake_run_plans)
        assert cli.main([*argv, "--no-cache"]) == 0
        assert [plan.seeds for plan in planned] == [seeds]


class TestRequestKey:
    def test_stable_under_override_ordering(self):
        a = SweepRequest.from_dict(
            {"target": "fig6", "overrides": {"n_sensors": 6, "sim_time_s": 3.0}}
        )
        b = SweepRequest.from_dict(
            {"target": "fig6", "overrides": {"sim_time_s": 3.0, "n_sensors": 6}}
        )
        assert request_key(a) == request_key(b)

    def test_sensitive_to_target_and_params(self):
        base = {"target": "fig6", "quick": True, "seeds": [1], "overrides": TINY}
        key = request_key(SweepRequest.from_dict(base))
        # fig11 sweeps the same cells but aggregates differently: new key.
        for variant in (
            dict(base, target="fig11"),
            dict(base, quick=False),
            dict(base, seeds=[2]),
            dict(base, overrides=dict(TINY, n_sensors=7)),
        ):
            assert request_key(SweepRequest.from_dict(variant)) != key

    def test_key_shape(self):
        key = request_key(SweepRequest(target="fig6", quick=True, seeds=(1,)))
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


def test_apply_overrides_validates_fields():
    from repro.experiments.config import table2_config

    base = table2_config()
    assert apply_overrides(base, None) is base
    small = apply_overrides(base, {"n_sensors": 6})
    assert small.n_sensors == 6
    with pytest.raises(EngineError, match="bad config override"):
        apply_overrides(base, {"n_sensors": -5})


# The link constants, Node's queue default and the test-side oracles
# (forwarding, tracing, clock drift) are not config fields.
@pytest.mark.parametrize(
    "name",
    [
        "bogus_field", "bitrate_bps", "comm_range_m", "sound_speed_mps", "control_bits",
        "queue_limit", "forwarding", "trace", "clock_drift_ppm_std",
    ],
)
def test_apply_overrides_rejects_unknown_fields(name):
    from repro.experiments.config import table2_config

    with pytest.raises(EngineError, match="unknown config override"):
        apply_overrides(table2_config(), {name: 1})


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_sensors", 6.5),
        ("n_sensors", True),
        ("seed", "1"),
        ("mobility", "no"),
        ("mobility", 1),
        ("sim_time_s", "3"),
        ("sim_time_s", False),
        ("protocol", 3),
        ("max_retries", 2.0),
        ("faults", "x"),
        ("faults", None),
    ],
)
def test_apply_overrides_checks_the_default_type(name, value):
    from repro.experiments.config import table2_config

    with pytest.raises(EngineError, match=f"bad config override: {name} "):
        apply_overrides(table2_config(), {name: value})


def test_apply_overrides_widens_ints_to_float_fields():
    from repro.experiments.config import table2_config

    base = table2_config()
    config = apply_overrides(base, {"sim_time_s": 3, "max_retries": None, "seed": 4})
    assert config.sim_time_s == 3.0 and type(config.sim_time_s) is float
    assert config.max_retries is None and config.seed == 4
    assert apply_overrides(base, {"max_retries": 2}).max_retries == 2
    unset = SweepRequest.from_dict({"target": "fig6", "overrides": {"max_retries": None}})
    assert request_key(unset) == request_key(SweepRequest("fig6"))
    ints = SweepRequest.from_dict({"target": "fig6", "overrides": {"sim_time_s": 3}})
    floats = SweepRequest.from_dict({"target": "fig6", "overrides": {"sim_time_s": 3.0}})
    assert request_key(ints) == request_key(floats)


@pytest.mark.parametrize(
    "name, value",
    [
        ("sim_time_s", float("inf")),
        ("sim_time_s", float("nan")),
        ("sim_time_s", 0.0),
        ("sim_time_s", -1),
        ("side_m", 0),
        ("side_m", float("nan")),
        ("side_m", -10.0),
        ("side_m", float("inf")),
        ("warmup_s", -1.0),
        ("warmup_s", float("inf")),
        ("warmup_s", float("nan")),
        ("offered_load_kbps", float("inf")),
        ("offered_load_kbps", -0.1),
        ("offered_load_kbps", float("nan")),
        ("interference_range_factor", 0.5),
        ("interference_range_factor", float("inf")),
        ("interference_range_factor", float("nan")),
        ("interference_range_factor", -1),
        pytest.param("sim_time_s", 10**400, id="sim_time_s-int_past_float"),
    ],
)
def test_apply_overrides_rejects_values_that_break_a_run(name, value):
    # An infinite or NaN window never finishes, and a bad geometry or load
    # would only fail once each queued cell builds its scenario.
    from repro.experiments.config import table2_config

    with pytest.raises(EngineError, match=f"bad config override: {name}"):
        apply_overrides(table2_config(), {name: value})


def test_run_request_matches_direct_figure_call():
    """The service path must be bit-identical to running the plan directly."""
    request = SweepRequest.from_dict(
        {"target": "fig6", "quick": True, "seeds": [1], "overrides": TINY}
    )
    result = run_request(request, workers=1, cache=None)
    [direct] = run_plans([ALL_PLANS["fig6"](seeds=(1,), quick=True, overrides=TINY)])
    assert json.dumps(result.to_dict()["figure"], sort_keys=True) == json.dumps(
        direct.figure.to_dict(), sort_keys=True
    )
    assert result.failures == []
    assert result.cells_total == 12
    # The whole document round-trips through JSON (the service wire format).
    assert json.loads(json.dumps(result.to_dict())) == result.to_dict()


def test_chaos_summary_comes_out_of_run_plans():
    """run_plans returns the plan's ChaosSummary; run_request serializes it."""
    request = SweepRequest.from_dict(
        {"target": "chaos", "quick": True, "seeds": [1], "overrides": TINY}
    )
    [(figure, summary, error)] = run_plans([request_plan(request)])
    assert error is None
    assert isinstance(summary, ChaosSummary)
    assert summary.cells == 10
    result = run_request(request, workers=1, cache=None)
    assert result.summary_lines == summary.lines()
    assert result.figure.to_dict() == figure.to_dict()


@pytest.mark.parametrize(
    "counters, failure",
    [
        ({}, None),
        ({"faulted_cells": 2, "recoveries": 1}, None),
        ({"faulted_cells": 2, "recoveries": 1, "wedged_handshakes": 3}, "3 wedged"),
        ({"faulted_cells": 2}, "no node ever recovered"),
    ],
)
def test_chaos_summary_failure(counters, failure):
    verdict = ChaosSummary(**counters).failure()
    if failure is None:
        assert verdict is None
    else:
        assert failure in verdict


def test_observer_collects_cache_traffic(tmp_path):
    request = SweepRequest.from_dict(
        {"target": "fig6", "quick": True, "seeds": [1], "overrides": TINY}
    )
    with observe_sweeps() as cold:
        run_request(request, workers=1, cache=tmp_path / "cache")
    assert cold.cache_hits == 0
    assert cold.cache_misses == 12
    assert cold.cache_stores == 12
    with observe_sweeps() as warm:
        run_request(request, workers=1, cache=tmp_path / "cache")
    assert warm.cache_hits == 12
    assert warm.cache_misses == 0
    assert "12 hit(s)" in warm.cache_line()
