"""Resume-equivalence gate: MAC × mobility × chaos.

Every combination of MAC protocol, mobility, and fault injection must
survive the cut-and-resume cycle bit-identically — the checkpoint layer
pickles the *whole* scenario, so any subsystem that hides unpicklable or
process-local state (a lambda, a cached wall-clock deadline, a global
counter) breaks exactly one of these cells.  This is the acceptance gate
for the fault-tolerance work: if a cell here fails, checkpoint/resume is
silently changing figures for that configuration.
"""

from __future__ import annotations

import pytest

from repro.experiments.checkpoint import restore_scenario, snapshot_scenario
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from repro.faults.plan import CrashWave, FaultPlan, NoiseBurst

MACS = ("EW-MAC", "S-FAMA", "ALOHA", "CS-MAC")

CHAOS_PLANS = {
    "none": FaultPlan(),
    "crash-wave": FaultPlan(waves=(CrashWave(at_s=12.0, fraction=0.3),)),
    "noise-burst": FaultPlan(
        noise_bursts=(NoiseBurst(at_s=11.0, duration_s=4.0, extra_noise_db=6.0),)
    ),
}


def _config(protocol: str, mobility: bool, chaos: str):
    return table2_config(
        protocol=protocol,
        n_sensors=6,
        sim_time_s=8.0,
        side_m=3000.0,
        seed=7,
        mobility=mobility,
        faults=CHAOS_PLANS[chaos],
    )


class _Interrupt(Exception):
    pass


def _cut_and_resume(config, every_s: float = 3.0, nth: int = 2) -> dict:
    """Baseline + interrupted/resumed runs; returns both summaries."""
    baseline = Scenario(config).run_steady_state().to_dict()
    taken = []

    def hook(scenario: Scenario) -> None:
        taken.append(snapshot_scenario(scenario))
        if len(taken) >= nth:
            raise _Interrupt

    try:
        finished = Scenario(config).run_steady_state(every_s, hook)
    except _Interrupt:
        resumed = restore_scenario(taken[-1]).resume().to_dict()
    else:  # pragma: no cover - window too short for nth checkpoints
        resumed = finished.to_dict()
    return {"baseline": baseline, "resumed": resumed}


@pytest.mark.parametrize("protocol", MACS)
@pytest.mark.parametrize("mobility", [False, True], ids=["static", "mobile"])
@pytest.mark.parametrize("chaos", sorted(CHAOS_PLANS))
def test_resume_bit_identical(protocol, mobility, chaos):
    runs = _cut_and_resume(_config(protocol, mobility, chaos))
    assert runs["resumed"] == runs["baseline"]


def test_faulted_resume_preserves_fault_report_keys():
    """The chaos cells really exercise the injector across the cut."""
    runs = _cut_and_resume(_config("EW-MAC", True, "crash-wave"))
    assert "delivery_ratio" in runs["baseline"]
    assert runs["resumed"]["delivery_ratio"] == runs["baseline"]["delivery_ratio"]
