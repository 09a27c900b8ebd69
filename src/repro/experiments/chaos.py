"""Chaos sweep: protocol robustness under seeded fault injection.

The ``repro-uasn chaos`` target sweeps the crash fraction over all five
protocols (the paper's four plus the ALOHA floor) and reports the
delivery ratio under faults — the headline degradation curve — plus the
aggregate fault/recovery counters.  Every fault is deterministic: the
crash-wave victims come from the scenario seed's ``"faults"`` stream, so
the same command line always kills the same nodes at the same instants.

The x = 0 column runs an **empty** fault plan and therefore doubles as a
live equivalence check: its cells are the untouched baseline scenarios.

The post-run audit runs inside every faulted cell
(:mod:`repro.faults.audit`); its wedged-handshake count is aggregated
into the :class:`ChaosSummary`, and the CLI exits nonzero if any MAC was
left wedged by a dead peer — the smoke job's assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..faults.plan import ClockFault, CrashWave, FaultPlan, ModemOutage, NoiseBurst
from .config import ScenarioConfig
from .engine import PAPER_PROTOCOLS, GridResults
from .figures import PlanRow
from .scenario import ScenarioResult

#: The chaos sweep adds the ALOHA floor to the paper's protocol set.
CHAOS_PROTOCOLS: Tuple[str, ...] = PAPER_PROTOCOLS + ("ALOHA",)


def chaos_plan(
    fraction: float,
    warmup_s: float,
    sim_time_s: float,
    n_sensors: int,
) -> FaultPlan:
    """The standard chaos fault mix for one crash fraction.

    ``fraction <= 0`` returns the empty plan (the baseline column).  A
    positive fraction schedules, inside the measurement window:

    * a crash wave killing ``fraction`` of the sensors a quarter of the
      way in, each victim recovering after 30% of the window;
    * a TX outage on node 1 and an RX outage on node 2 (earlier, disjoint
      from the crash window) to exercise the half-duplex chains;
    * a clock fault on node 3 (offset jump + 5 ppm drift) at mid-window;
    * a +6 dB noise burst at 65% of the window.
    """
    if fraction <= 0:
        return FaultPlan()
    crashes = (
        CrashWave(
            at_s=warmup_s + 0.25 * sim_time_s,
            fraction=fraction,
            recover_after_s=0.3 * sim_time_s,
        ),
    )
    outages: Tuple[ModemOutage, ...] = ()
    if n_sensors > 2:
        outages = (
            ModemOutage(
                node_id=1,
                at_s=warmup_s + 0.1 * sim_time_s,
                duration_s=0.1 * sim_time_s,
                direction="tx",
            ),
            ModemOutage(
                node_id=2,
                at_s=warmup_s + 0.1 * sim_time_s,
                duration_s=0.1 * sim_time_s,
                direction="rx",
            ),
        )
    clock_faults: Tuple[ClockFault, ...] = ()
    if n_sensors > 3:
        clock_faults = (
            ClockFault(
                node_id=3,
                at_s=warmup_s + 0.5 * sim_time_s,
                offset_jump_s=0.002,
                drift_ppm=5.0,
            ),
        )
    noise_bursts = (
        NoiseBurst(
            at_s=warmup_s + 0.65 * sim_time_s,
            duration_s=0.1 * sim_time_s,
            extra_noise_db=6.0,
        ),
    )
    # strict_audit=False: the sweep *counts* wedged handshakes instead of
    # raising mid-cell, so the chaos CLI can finish the grid, print the
    # degradation curve, and fail with a named reason (exit 1) if any MAC
    # ended wedged.  The unit tests exercise the strict (raising) mode.
    return FaultPlan(
        waves=crashes,
        outages=outages,
        clock_faults=clock_faults,
        noise_bursts=noise_bursts,
        strict_audit=False,
    )


@dataclass
class ChaosSummary:
    """Aggregate fault/recovery counters over the whole chaos grid."""

    cells: int = 0
    faulted_cells: int = 0
    crashes: int = 0
    recoveries: int = 0
    wedged_handshakes: int = 0
    recovery_times_s: List[float] = field(default_factory=list)

    @property
    def mean_recovery_time_s(self) -> float:
        if not self.recovery_times_s:
            return 0.0
        return sum(self.recovery_times_s) / len(self.recovery_times_s)

    def add(self, result: ScenarioResult) -> None:
        self.cells += 1
        report = result.faults
        if report is None:
            return
        self.faulted_cells += 1
        self.crashes += report.crashes
        self.recoveries += report.recoveries
        self.wedged_handshakes += report.wedged_handshakes
        self.recovery_times_s.extend(report.recovery_times_s)

    def lines(self) -> List[str]:
        return [
            f"cells run:          {self.cells} ({self.faulted_cells} faulted)",
            f"crashes injected:   {self.crashes}",
            f"recoveries:         {self.recoveries}",
            f"wedged handshakes:  {self.wedged_handshakes}",
            f"mean time-to-recover: {self.mean_recovery_time_s:.1f} s",
        ]

    def failure(self) -> Optional[str]:
        """Why the sweep failed its audit, or ``None`` if it passed."""
        if self.wedged_handshakes > 0:
            return (
                f"{self.wedged_handshakes} wedged handshake(s) survived the "
                "post-run audit"
            )
        if self.faulted_cells > 0 and self.recoveries == 0:
            return (
                "faulted cells ran but no node ever recovered — the recovery "
                "path is not being exercised"
            )
        return None


def _configure(
    cfg: ScenarioConfig, x: float, protocol: str, seed: int
) -> ScenarioConfig:
    return cfg.with_(
        protocol=protocol,
        seed=seed,
        faults=chaos_plan(x, cfg.warmup_s, cfg.sim_time_s, cfg.n_sensors),
    )


def summarize_grid(row: PlanRow, results: GridResults) -> ChaosSummary:
    """Aggregate every cell's fault report into one :class:`ChaosSummary`."""
    summary = ChaosSummary()
    for cell_results in results.values():
        for result in cell_results:
            summary.add(result)
    return summary


#: The chaos sweep's row of the target table (the engine's ``chaos``
#: target).  ``summarize`` returns the :class:`ChaosSummary`, so the job
#: service and the CLI report the same wedge/recovery lines from the same
#: grid, and the CLI's exit code reads its :meth:`~ChaosSummary.failure`.
CHAOS = PlanRow(
    "chaos",
    "Delivery ratio under seeded fault injection",
    "Crashed fraction of sensors",
    "Delivery ratio (delivered bits / offered bits)",
    quick_x=(0.0, 0.2),
    full_x=(0.0, 0.1, 0.2, 0.3),
    metric=lambda r: r.delivery_ratio,
    quick_base={"n_sensors": 20, "sim_time_s": 60.0},
    protocols=CHAOS_PROTOCOLS,
    notes=(
        "Chaos sweep (not a paper figure): each faulted cell injects a "
        "seeded crash wave with recovery, TX/RX modem outages, a clock "
        "fault, and a +6 dB noise burst; x = 0 is the fault-free "
        "baseline.  Post-run audits count wedged MACs; any makes the "
        "chaos CLI exit nonzero."
    ),
    configure=_configure,
    summarize=summarize_grid,
)
