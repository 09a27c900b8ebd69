"""Rerun-after-abort gate: MAC × mobility × chaos.

The cell is the unit of recovery: an attempt that runs out of wall clock
is dropped and the cell reruns from zero, in the same process (the
serial retry) or a worker that already ran other cells.  So nothing an
aborted attempt touched may reach the rerun's result — not a
module-global frame or request uid counter, not a class-level cache, not
a stream of the process RNG.  Every combination of MAC protocol,
mobility and fault injection is cut halfway through its events by the
real wall deadline, then rerun and compared with a clean run bit for bit.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from repro.faults.plan import CrashWave, FaultPlan, NoiseBurst
from tests.aborted_attempt import abort_attempt

MACS = ("EW-MAC", "S-FAMA", "ALOHA", "CS-MAC", "ROPA")

CHAOS_PLANS = {
    "none": FaultPlan(),
    "crash-wave": FaultPlan(waves=(CrashWave(at_s=12.0, fraction=0.3),)),
    "noise-burst": FaultPlan(
        noise_bursts=(NoiseBurst(at_s=11.0, duration_s=4.0, extra_noise_db=6.0),)
    ),
}

BATCH = (3, 600.0)


def _config(protocol: str, mobility: bool = False, chaos: str = "none", **extra):
    return table2_config(
        protocol=protocol,
        n_sensors=6,
        sim_time_s=8.0,
        side_m=3000.0,
        seed=7,
        mobility=mobility,
        faults=CHAOS_PLANS[chaos],
        **extra,
    )


def _abort_and_rerun(config, batch=None) -> dict:
    """Clean run, an attempt cut halfway, then the rerun.

    Returns both summaries and the simulated time of the cut.
    """

    def run(scenario: Scenario):
        if batch is None:
            return scenario.run_steady_state()
        return scenario.run_batch(*batch)

    clean = run(Scenario(config))
    aborted = abort_attempt(config, clean.perf.events // 2, batch)
    rerun = run(Scenario(config))
    assert rerun.perf.events == clean.perf.events
    return {
        "clean": clean.to_dict(),
        "rerun": rerun.to_dict(),
        "cut_at_s": aborted.sim.now,
    }


@pytest.mark.parametrize("protocol", MACS)
@pytest.mark.parametrize("mobility", [False, True], ids=["static", "mobile"])
@pytest.mark.parametrize("chaos", sorted(CHAOS_PLANS))
def test_rerun_after_abort_bit_identical(protocol, mobility, chaos):
    runs = _abort_and_rerun(_config(protocol, mobility, chaos))
    assert runs["rerun"] == runs["clean"]


@pytest.mark.parametrize("protocol", MACS)
def test_batch_rerun_after_abort_bit_identical(protocol):
    # The cut lands inside the drain, which advances in 1 s windows.
    config = _config(protocol, max_retries=100)
    runs = _abort_and_rerun(config, BATCH)
    assert runs["rerun"] == runs["clean"]
    assert config.warmup_s + 1.0 < runs["cut_at_s"] < runs["clean"]["drain_time_s"]


def test_faulted_rerun_preserves_fault_report_keys():
    """The chaos cells really exercise the injector on both sides of the cut."""
    runs = _abort_and_rerun(_config("EW-MAC", True, "crash-wave"))
    assert "delivery_ratio" in runs["clean"]
    assert runs["rerun"]["delivery_ratio"] == runs["clean"]["delivery_ratio"]
