"""Discrete-event simulation kernel.

This subpackage is the substrate every other layer runs on: a deterministic
binary-heap event queue (:mod:`repro.des.events`), the virtual-clock
scheduler (:mod:`repro.des.simulator`), per-component random streams
(:mod:`repro.des.rng`) and structured tracing (:mod:`repro.des.trace`).

The paper evaluated EW-MAC inside NS-3; this kernel plays NS-3's role for
the reproduction (simpy is not available in the offline environment).
"""

from .errors import (
    EventStateError,
    SchedulingError,
    SimulationError,
    WallClockExceeded,
)
from .events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Event, EventQueue
from .rng import RandomStreams, derive_seed
from .simulator import Simulator
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "Event",
    "EventQueue",
    "EventStateError",
    "NullTracer",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "RandomStreams",
    "SchedulingError",
    "SimulationError",
    "Simulator",
    "TraceRecord",
    "Tracer",
    "WallClockExceeded",
    "derive_seed",
]
