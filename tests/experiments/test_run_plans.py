"""One invocation is one cell set: ``run_plans`` runs each unique cell once.

Quick Fig. 6 and Fig. 11 sweep the same 12 cells and aggregate them
differently, so running both plans together must simulate 12 cells, in
one pool, and hand each plan the grid it would have had on its own.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

import repro.experiments.parallel as parallel_mod
from repro.experiments.engine import (
    PAPER_PROTOCOLS,
    SweepRequest,
    observe_sweeps,
    run_plans,
    run_request,
)
from repro.experiments.figures import ALL_PLANS
from repro.experiments.parallel import execute_cell, expand_cells
from repro.experiments.scenario import Scenario

#: Small enough for tier-1, long enough that S-FAMA delivers at every
#: quick load, so Fig. 11's ratio to it is defined.
TINY = {"n_sensors": 6, "sim_time_s": 10.0, "warmup_s": 2.0}

#: Too short for any delivery: every S-FAMA efficiency is 0.
ZERO_BASELINE = {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0}


def _plans(overrides=TINY):
    return [ALL_PLANS[target](quick=True, overrides=overrides) for target in ("fig6", "fig11")]


def _document(outcome):
    assert outcome.error is None
    return outcome.figure.to_dict(), outcome.summary.lines()


def _cell_set(plans):
    return {
        (cell.config, cell.batch)
        for plan in plans
        for cell in expand_cells(plan.spec, plan.base, plan.protocols, plan.seeds)
    }


def test_shared_cells_run_once_in_process(monkeypatch):
    ran = []

    def counting(cell, *args):
        ran.append((cell.config, cell.batch))
        return execute_cell(cell, *args)

    monkeypatch.setattr(parallel_mod, "execute_cell", counting)
    plans = _plans()
    assert sum(plan.n_cells for plan in plans) == 24
    run_plans(plans, workers=1)
    assert len(ran) == 12
    assert set(ran) == _cell_set(plans)


def test_one_pool_runs_every_plan_and_matches_serial(monkeypatch):
    pools, submitted = [], []

    class CountingPool(parallel_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

        def submit(self, fn, cell, *args, **kwargs):
            submitted.append((cell.config, cell.batch))
            return super().submit(fn, cell, *args, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", CountingPool)
    plans = _plans()
    pooled = run_plans(plans, workers=2)
    assert len(pools) == 1
    assert len(submitted) == 12 and set(submitted) == _cell_set(plans)
    serial = run_plans(plans, workers=1)
    assert [_document(o) for o in pooled] == [_document(o) for o in serial]


def test_each_outcome_equals_its_plan_run_alone():
    together = run_plans(_plans())
    alone = [run_plans([plan])[0] for plan in _plans()]
    assert [_document(o) for o in together] == [_document(o) for o in alone]


def test_failing_shared_cell_fails_once_and_empties_both_buckets(monkeypatch):
    real = Scenario.run_steady_state

    def run_steady_state(self, *args, **kwargs):
        if self.config.protocol == "EW-MAC" and self.config.offered_load_kbps == 0.6:
            raise RuntimeError("cell blew up")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "run_steady_state", run_steady_state)
    grid_plans = [
        dataclasses.replace(plan, build=lambda grid: grid, summarize=None)
        for plan in _plans()
    ]
    with observe_sweeps() as observer:
        outcomes = run_plans(grid_plans)
    assert [f.cell.label for f in observer.failures] == [
        "EW-MAC fig6 x=0.6, fig11 x=0.6 seed=1"
    ]
    for outcome in outcomes:
        grid = outcome.figure
        assert grid[(0.6, "EW-MAC")] == []
        assert all(len(bucket) == 1 for key, bucket in grid.items() if key != (0.6, "EW-MAC"))


def test_shared_cell_names_every_plan_it_serves(monkeypatch):
    """Quick Fig. 7's n=100 cells are Fig. 10b's 0.8 kbps cells.

    Each such cell's progress lines and failure name both plans' points;
    every other cell keeps its one-plan ``protocol x=.. seed=..`` label.
    """

    def failing(cell, *args):
        raise RuntimeError("cell blew up")

    monkeypatch.setattr(parallel_mod, "execute_cell", failing)
    plans = [
        dataclasses.replace(ALL_PLANS[target](quick=True), build=lambda grid: grid, summarize=None)
        for target in ("fig7", "fig10b")
    ]
    lines = []
    with observe_sweeps() as observer:
        run_plans(plans, progress=lines.append)
    labels = [failure.cell.label for failure in observer.failures]
    assert len(labels) == len(_cell_set(plans)) < sum(plan.n_cells for plan in plans)
    shared = [label for label in labels if ", " in label]
    assert shared == [
        f"{protocol} fig7 x=100, fig10b x=0.8 seed=1" for protocol in PAPER_PROTOCOLS
    ]
    assert all(re.fullmatch(r"\S+ x=\S+ seed=\d+", label) for label in labels if label not in shared)
    for label in shared:
        assert f"{label} failed permanently (RuntimeError: cell blew up); continuing" in lines


def test_build_error_stays_in_its_plans_outcome():
    fig6, fig11 = run_plans(_plans(ZERO_BASELINE))
    assert fig6.error is None and fig6.figure.figure_id == "fig6"
    assert fig11.figure is None and fig11.summary is None
    assert isinstance(fig11.error, ValueError)
    assert "baseline protocol 'S-FAMA'" in str(fig11.error)


def test_run_request_raises_its_build_error():
    request = SweepRequest("fig11", quick=True, overrides=tuple(ZERO_BASELINE.items()))
    with pytest.raises(ValueError, match="baseline protocol 'S-FAMA'"):
        run_request(request)
