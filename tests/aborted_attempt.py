"""An attempt stopped by its wall-clock deadline at a chosen event.

The cell is the unit of recovery: an attempt that times out is dropped
and the cell reruns from zero in a fresh :class:`Scenario`, in the same
process.  :func:`abort_attempt` makes such an attempt on demand through
the production path — it arms :meth:`Simulator.set_wall_deadline` with a
budget that is already spent and checks it every ``after_events``
events, so :class:`WallClockExceeded` is raised right after event
``after_events`` of the attempt, whichever run window it falls in.
"""

from __future__ import annotations

from typing import Optional, Tuple

import pytest

from repro.des.errors import WallClockExceeded
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario import Scenario


def abort_attempt(
    config: ScenarioConfig,
    after_events: int,
    batch: Optional[Tuple[int, float]] = None,
) -> Scenario:
    """Run ``config`` until its deadline trips; return the dropped scenario."""
    scenario = Scenario(config)
    scenario.sim._WALL_CHECK_EVERY = after_events
    scenario.sim.set_wall_deadline(-1.0)
    with pytest.raises(WallClockExceeded):
        if batch is None:
            scenario.run_steady_state()
        else:
            scenario.run_batch(*batch)
    assert scenario.sim.events_processed == after_events
    return scenario
