"""Declarative fault plans.

A :class:`FaultPlan` describes *what goes wrong and when* in a scenario:
node crashes (with optional recovery), modem TX/RX chain outages,
clock-synchronization faults (offset jumps and drift steps through
:class:`~repro.net.clock.NodeClock`), and transient channel impairment
bursts (ship noise passing overhead) layered onto the ambient noise model.

Plans are pure data: frozen, hashable, picklable dataclasses with stable
``repr``s, so a plan can ride inside a frozen
:class:`~repro.experiments.config.ScenarioConfig`, cross process
boundaries with sweep cells, and contribute to the result-cache key (two
configs differing only in their fault plan hash differently).  Compiling
a plan into scheduled DES events is the
:class:`~repro.faults.injector.FaultInjector`'s job; an **empty** plan is
falsy and the scenario assembly skips the injector entirely — no events
are scheduled and no RNG stream is created, so an empty plan is
bit-identical to no plan at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Valid :class:`ModemOutage` directions.
OUTAGE_DIRECTIONS = ("tx", "rx", "both")


@dataclass(frozen=True)
class NodeCrash:
    """Kill one specific node at ``at_s`` (optionally recovering later).

    Attributes:
        node_id: The victim (must exist in the scenario).
        at_s: Crash instant in true simulation time.
        recover_after_s: If set, the node comes back (modem re-enabled,
            MAC restarted) this many seconds after the crash.
    """

    node_id: int
    at_s: float
    recover_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("crash time must be >= 0")
        if self.recover_after_s is not None and self.recover_after_s <= 0:
            raise ValueError("recover_after_s must be positive")


@dataclass(frozen=True)
class CrashWave:
    """Crash a seeded random fraction of the (non-sink) population.

    Victims are drawn from the scenario's dedicated ``"faults"`` RNG
    stream when the plan is armed, so the same seed always kills the same
    nodes.  ``jitter_s`` optionally spreads the individual crash instants
    uniformly over ``[at_s, at_s + jitter_s]`` instead of a simultaneous
    mass failure.
    """

    at_s: float
    fraction: float
    recover_after_s: Optional[float] = None
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("wave time must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.recover_after_s is not None and self.recover_after_s <= 0:
            raise ValueError("recover_after_s must be positive")
        if self.jitter_s < 0:
            raise ValueError("jitter must be >= 0")


@dataclass(frozen=True)
class ModemOutage:
    """Disable one node's TX and/or RX chain for a window.

    Unlike a crash, the node's MAC keeps running — it just shouts into a
    dead amplifier (``tx``) or misses everything on the air (``rx``).
    Its own retry/timeout machinery must absorb the loss, which is
    exactly what the recovery-hardening tests exercise.
    """

    node_id: int
    at_s: float
    duration_s: float
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("outage time must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("outage duration must be positive")
        if self.direction not in OUTAGE_DIRECTIONS:
            raise ValueError(
                f"direction must be one of {OUTAGE_DIRECTIONS}, got {self.direction!r}"
            )


@dataclass(frozen=True)
class ClockFault:
    """Degrade one node's clock synchronization at ``at_s``.

    ``offset_jump_s`` shifts the node's local time discontinuously (a
    botched re-sync); ``drift_ppm`` (if not None) replaces the clock's
    drift rate from this instant on.  The change is continuity-preserving
    apart from the jump: local time right before and after the fault
    differs by exactly ``offset_jump_s`` (see
    :meth:`~repro.net.clock.NodeClock.apply_fault`).
    """

    node_id: int
    at_s: float
    offset_jump_s: float = 0.0
    drift_ppm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("clock fault time must be >= 0")
        if self.offset_jump_s == 0.0 and self.drift_ppm is None:
            raise ValueError("clock fault must jump the offset or set a drift")


@dataclass(frozen=True)
class NoiseBurst:
    """Raise the network-wide noise floor by ``extra_noise_db`` for a window.

    Models a transient wideband interferer (ship passage, biological
    chorus): every decode during the window sees the ambient noise power
    multiplied by ``10^(extra_noise_db/10)``.  Bursts stack additively in
    dB if they overlap.  A negative ``extra_noise_db`` is a quieting burst:
    it *lowers* the floor below ambient, so frames that could not decode
    alone may decode inside the window (see
    :attr:`FaultPlan.quietest_extra_noise_db`).
    """

    at_s: float
    duration_s: float
    extra_noise_db: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("burst time must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("burst duration must be positive")
        if self.extra_noise_db == 0.0:
            raise ValueError("a 0 dB burst is a no-op; omit it")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic description of everything that fails.

    Falsy when no fault is scheduled: ``if config.faults:`` is the single
    gate deciding whether a scenario grows an injector at all.

    Attributes:
        strict_audit: When True (default), a run whose post-run invariant
            audit finds orphaned pending MAC state raises
            :class:`~repro.faults.audit.FaultAuditError` instead of
            returning a result — a wedged handshake is a protocol bug.
    """

    crashes: Tuple[NodeCrash, ...] = ()
    waves: Tuple[CrashWave, ...] = ()
    outages: Tuple[ModemOutage, ...] = ()
    clock_faults: Tuple[ClockFault, ...] = ()
    noise_bursts: Tuple[NoiseBurst, ...] = ()
    strict_audit: bool = True

    def __post_init__(self) -> None:
        # Accept any sequence but store tuples: keeps the plan hashable
        # (the frozen ScenarioConfig hashes) and its repr cache-stable.
        for name in ("crashes", "waves", "outages", "clock_faults", "noise_bursts"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def empty(self) -> bool:
        return not (
            self.crashes
            or self.waves
            or self.outages
            or self.clock_faults
            or self.noise_bursts
        )

    def __bool__(self) -> bool:
        return not self.empty

    @property
    def quietest_extra_noise_db(self) -> float:
        """A lower bound on the channel's ``extra_noise_db`` under this plan.

        Every quieting burst may overlap every other one, so the floor can
        drop by their sum.  The injector adds and removes burst levels in
        float arithmetic, which can leave a few ULP of residue — below 0.0
        even with raising bursts only — so the bound is lowered by a margin
        far larger than any such residue.  Exactly 0.0 without noise bursts.
        """
        bursts = [burst.extra_noise_db for burst in self.noise_bursts]
        if not bursts:
            return 0.0
        quieting = sum(db for db in bursts if db < 0.0)
        return quieting - 1e-9 * (1.0 + sum(abs(db) for db in bursts))
