"""Plain in-process sweep loop: the oracle for the production sweep runner.

Production :func:`~repro.experiments.engine.run_sweep` always goes
through :class:`~repro.experiments.parallel.ParallelSweepRunner` (cell
expansion, result cache, process pool, recovery).
:func:`reference_sweep` is the loop that fabric replaces: every
(x, protocol, seed) cell is configured and run in order, right here,
with nothing cached, pooled or retried.  Whatever the runner does, its
grid must match this one bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import GridResults, SweepSpec
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
