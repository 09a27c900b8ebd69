"""Deterministic, seed-driven fault injection for scenario runs.

Declare *what fails* with a :class:`FaultPlan` (pure data, hashable,
cache-key-stable), hand it to ``ScenarioConfig(faults=...)``, and the
scenario compiles it into scheduled DES events via :class:`FaultInjector`.
Degradation metrics and the executed fault timeline come back as a
:class:`FaultReport` on the :class:`~repro.experiments.scenario.ScenarioResult`;
the post-run invariant audit (:mod:`repro.faults.audit`) guarantees no MAC
ends wedged by a peer that died mid-exchange.
"""

from .audit import FaultAuditError, audit_macs
from .injector import FaultEvent, FaultInjector, FaultReport
from .plan import (
    ClockFault,
    CrashWave,
    FaultPlan,
    ModemOutage,
    NodeCrash,
    NoiseBurst,
)

__all__ = [
    "ClockFault",
    "CrashWave",
    "FaultAuditError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "ModemOutage",
    "NodeCrash",
    "NoiseBurst",
    "audit_macs",
]
