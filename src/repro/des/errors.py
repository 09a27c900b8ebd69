"""Exceptions raised by the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""


class EventStateError(SimulationError):
    """An operation was applied to an event in the wrong lifecycle state."""


class WallClockExceeded(SimulationError):
    """The run loop passed its real-time (wall-clock) deadline.

    Raised by :meth:`repro.des.simulator.Simulator.run` when a
    ``wall_deadline`` was armed via
    :meth:`~repro.des.simulator.Simulator.set_wall_deadline`.  Sweep
    workers use this as a cooperative per-cell timeout: a runaway cell
    unwinds cleanly instead of having to be killed from outside.
    """
