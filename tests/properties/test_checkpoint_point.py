"""Property: resume is bit-identical no matter *where* the run is cut.

The unit tests pin a handful of interruption points; here Hypothesis
drives the checkpoint cadence and which checkpoint the "crash" lands on,
so the equivalence holds for arbitrary cut points — early in warmup
spill-over, mid-traffic, or one window before the end — not just the
points we thought to write down.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.checkpoint import restore_scenario, snapshot_scenario
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario

CONFIG = table2_config(n_sensors=6, sim_time_s=8.0, side_m=3000.0, seed=5)

_BASELINES = {}


def _baseline(protocol: str) -> dict:
    if protocol not in _BASELINES:
        config = CONFIG.with_(protocol=protocol)
        _BASELINES[protocol] = Scenario(config).run_steady_state().to_dict()
    return _BASELINES[protocol]


class _Interrupt(Exception):
    pass


@settings(max_examples=12, deadline=None)
@given(
    every_s=st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
    nth=st.integers(min_value=1, max_value=4),
    protocol=st.sampled_from(["EW-MAC", "S-FAMA"]),
)
def test_resume_bit_identical_at_any_checkpoint(every_s, nth, protocol):
    config = CONFIG.with_(protocol=protocol)
    taken = []

    def hook(scenario: Scenario) -> None:
        taken.append(snapshot_scenario(scenario))
        if len(taken) >= nth:
            raise _Interrupt

    scenario = Scenario(config)
    try:
        uninterrupted = scenario.run_steady_state(every_s, hook)
    except _Interrupt:
        resumed = restore_scenario(taken[-1]).resume().to_dict()
        assert resumed == _baseline(protocol)
    else:
        # Fewer than nth checkpoints fit in the window: the run finished
        # untouched and must still match the plain baseline.
        assert uninterrupted.to_dict() == _baseline(protocol)


@settings(max_examples=6, deadline=None)
@given(
    every_s=st.floats(min_value=5.0, max_value=60.0, allow_nan=False),
    nth=st.integers(min_value=1, max_value=2),
)
def test_batch_resume_bit_identical_at_any_checkpoint(every_s, nth):
    config = CONFIG.with_(max_retries=100)
    key = ("batch", config.protocol)
    if key not in _BASELINES:
        _BASELINES[key] = Scenario(config).run_batch(3, 600.0).to_dict()
    baseline = _BASELINES[key]
    taken = []

    def hook(scenario: Scenario) -> None:
        taken.append(snapshot_scenario(scenario))
        if len(taken) >= nth:
            raise _Interrupt

    scenario = Scenario(config)
    try:
        finished = scenario.run_batch(3, 600.0, every_s, hook)
    except _Interrupt:
        resumed = restore_scenario(taken[-1]).resume().to_dict()
        assert resumed == baseline
        assert resumed["drain_time_s"] == baseline["drain_time_s"]
    else:
        assert finished.to_dict() == baseline
