"""Property: a rerun is bit-identical no matter *where* the attempt was cut.

The matrix gate cuts every configuration halfway; here Hypothesis picks
the event at which the wall deadline stops the dropped attempt — in the
warmup, mid-traffic, inside a batch drain or one event before the end —
and the rerun that follows in the same process must match a clean run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from tests.aborted_attempt import abort_attempt

CONFIG = table2_config(n_sensors=6, sim_time_s=8.0, side_m=3000.0, seed=5)
BATCH = (3, 600.0)

_CLEAN = {}


def _clean(key, config, run):
    if key not in _CLEAN:
        result = run(Scenario(config))
        _CLEAN[key] = (result.perf.events, result.to_dict())
    return _CLEAN[key]


@settings(max_examples=12, deadline=None)
@given(
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    protocol=st.sampled_from(["EW-MAC", "S-FAMA"]),
)
def test_rerun_bit_identical_wherever_the_attempt_is_cut(fraction, protocol):
    config = CONFIG.with_(protocol=protocol)
    events, clean = _clean(protocol, config, Scenario.run_steady_state)
    abort_attempt(config, 1 + int(fraction * (events - 1)))
    assert Scenario(config).run_steady_state().to_dict() == clean


@settings(max_examples=6, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_batch_rerun_bit_identical_wherever_the_attempt_is_cut(fraction):
    config = CONFIG.with_(max_retries=100)

    def run(scenario):
        return scenario.run_batch(*BATCH)

    events, clean = _clean(("batch", config.protocol), config, run)
    abort_attempt(config, 1 + int(fraction * (events - 1)), BATCH)
    rerun = run(Scenario(config)).to_dict()
    assert rerun == clean
    assert rerun["drain_time_s"] == clean["drain_time_s"]
