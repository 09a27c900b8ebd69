"""Plain in-process sweep loop: the oracle for the production executor.

Production :func:`~repro.experiments.engine.run_plans` expands every
plan into cells, dedupes them, and runs them through
:class:`~repro.experiments.parallel.ParallelSweepRunner` (result cache,
process pool, recovery) before it assembles each plan's grid.
:func:`reference_sweep` is the loop that fabric replaces: every
(x, protocol, seed) cell is configured and run in order, right here,
with nothing deduped, cached, pooled or retried.  Whatever the executor
does, the grid it hands a plan (:func:`run_grid`) must match this one
bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import FigurePlan, GridResults, SweepSpec, run_plans
from repro.experiments.scenario import Scenario, ScenarioResult


def reference_sweep(
    spec: SweepSpec,
    base: ScenarioConfig,
    protocols: Sequence[str],
    seeds: Sequence[int],
) -> GridResults:
    """Run every (x, protocol, seed) cell serially, in grid order."""
    results: GridResults = {}
    for x in spec.x_values:
        for protocol in protocols:
            cell: List[ScenarioResult] = []
            for seed in seeds:
                config = spec.configure(base, x, protocol, seed)
                scenario = Scenario(config)
                if spec.batch is not None:
                    n_packets, max_time = spec.batch(x, config)
                    result = scenario.run_batch(n_packets, max_time)
                else:
                    result = scenario.run_steady_state()
                cell.append(result)
            results[(x, protocol)] = cell
    return results


def run_grid(
    spec: SweepSpec,
    base: ScenarioConfig,
    protocols: Sequence[str],
    seeds: Sequence[int],
    **run_kwargs: object,
) -> GridResults:
    """The grid :func:`run_plans` builds for one sweep, ``run_kwargs`` passed on.

    The sweep's plan builds its grid itself as its "figure", so the
    executor's grid assembly can be compared with :func:`reference_sweep`.
    """
    plan = FigurePlan("grid", spec, base, tuple(protocols), tuple(seeds), build=lambda grid: grid)
    [outcome] = run_plans([plan], **run_kwargs)
    return outcome.figure
