"""Compile a :class:`~repro.faults.plan.FaultPlan` into scheduled DES events.

The injector is created by :class:`~repro.experiments.scenario.Scenario`
only when the plan is non-empty, and :meth:`FaultInjector.arm` is called
once at scenario start.  Everything it does is deterministic: crash-wave
victims and jitters come from the dedicated ``"faults"`` RNG stream
(derived from the scenario seed, independent of every other stream), the
plan's entries are armed in declaration order, and the executed fault
timeline is logged as a tuple of :class:`FaultEvent`s that lands in the
:class:`FaultReport` — so two runs with the same seed produce identical
fault logs, and the log itself is part of the determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..des.simulator import Simulator
from .plan import ClockFault, CrashWave, FaultPlan, ModemOutage, NoiseBurst

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.node import Node
    from ..phy.channel import AcousticChannel


@dataclass(frozen=True)
class FaultEvent:
    """One executed fault action (the unit of the deterministic fault log)."""

    time_s: float
    kind: str  # crash | recover | outage_start | outage_end | clock | noise_start | noise_end
    node_id: Optional[int] = None
    detail: str = ""


@dataclass
class FaultReport:
    """Degradation metrics and the executed fault timeline for one run.

    ``wedged_handshakes`` is the number of post-run invariant violations
    (orphaned pending MAC state); ``recovery_times_s`` holds, per
    recovered node, the time from its return to its first successful
    application-level send or delivery.
    """

    events: Tuple[FaultEvent, ...] = ()
    crashes: int = 0
    recoveries: int = 0
    tx_outages: int = 0
    rx_outages: int = 0
    clock_faults: int = 0
    noise_bursts: int = 0
    wedged_handshakes: int = 0
    audit_violations: Tuple[str, ...] = ()
    recovery_times_s: Tuple[float, ...] = ()

    @property
    def mean_recovery_time_s(self) -> float:
        if not self.recovery_times_s:
            return 0.0
        return sum(self.recovery_times_s) / len(self.recovery_times_s)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary merged into ``ScenarioResult.to_dict``."""
        return {
            "fault_events": [
                (e.time_s, e.kind, e.node_id, e.detail) for e in self.events
            ],
            "fault_crashes": self.crashes,
            "fault_recoveries": self.recoveries,
            "wedged_handshakes": self.wedged_handshakes,
            "mean_recovery_time_s": self.mean_recovery_time_s,
        }


@dataclass
class _Counters:
    crashes: int = 0
    recoveries: int = 0
    tx_outages: int = 0
    rx_outages: int = 0
    clock_faults: int = 0
    noise_bursts: int = 0


class FaultInjector:
    """Schedules a plan's faults onto the kernel and logs what fired."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence["Node"],
        channel: "AcousticChannel",
        plan: FaultPlan,
    ) -> None:
        if not plan:
            raise ValueError("refusing to build an injector for an empty plan")
        self.sim = sim
        self.nodes = list(nodes)
        self.channel = channel
        self.plan = plan
        self._node_by_id: Dict[int, "Node"] = {n.node_id: n for n in self.nodes}
        self.events: List[FaultEvent] = []
        self.counts = _Counters()
        self._armed = False
        channel.bound_noise_floor(plan.quietest_extra_noise_db)

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Resolve victims and schedule every fault (call once, at start)."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for crash in self.plan.crashes:
            node = self._require_node(crash.node_id)
            self.sim.schedule_at(crash.at_s, self._crash, node, crash.recover_after_s)
        for wave in self.plan.waves:
            self._arm_wave(wave)
        for outage in self.plan.outages:
            self._require_node(outage.node_id)
            self.sim.schedule_at(outage.at_s, self._outage_start, outage)
            self.sim.schedule_at(
                outage.at_s + outage.duration_s, self._outage_end, outage
            )
        for fault in self.plan.clock_faults:
            self._require_node(fault.node_id)
            self.sim.schedule_at(fault.at_s, self._clock_fault, fault)
        for burst in self.plan.noise_bursts:
            self.sim.schedule_at(burst.at_s, self._noise_start, burst)
            self.sim.schedule_at(burst.at_s + burst.duration_s, self._noise_end, burst)

    def _require_node(self, node_id: int) -> "Node":
        node = self._node_by_id.get(node_id)
        if node is None:
            raise ValueError(
                f"fault plan targets node {node_id}, which does not exist "
                f"(scenario has ids {sorted(self._node_by_id)[:8]}...)"
            )
        return node

    def _arm_wave(self, wave: CrashWave) -> None:
        rng = self.sim.streams.get("faults")
        eligible = [n for n in self.nodes if not n.is_sink]
        count = int(round(wave.fraction * len(eligible)))
        if count <= 0:
            return
        picks = rng.choice(len(eligible), size=count, replace=False)
        for index in sorted(int(i) for i in picks):
            node = eligible[index]
            at = wave.at_s
            if wave.jitter_s > 0:
                at += float(rng.uniform(0.0, wave.jitter_s))
            self.sim.schedule_at(at, self._crash, node, wave.recover_after_s)

    # ------------------------------------------------------------------
    # Scheduled actions
    # ------------------------------------------------------------------
    def _log(self, kind: str, node_id: Optional[int] = None, detail: str = "") -> None:
        self.events.append(FaultEvent(self.sim.now, kind, node_id, detail))
        node = -1 if node_id is None else node_id
        self.sim.trace.emit(self.sim.now, f"fault.{kind}", node, detail=detail)

    def _crash(self, node: "Node", recover_after_s: Optional[float]) -> None:
        if not node.alive:
            return  # already down (overlapping crash entries)
        node.fail()
        self.counts.crashes += 1
        self._log("crash", node.node_id)
        if recover_after_s is not None:
            self.sim.schedule(recover_after_s, self._recover, node)

    def _recover(self, node: "Node") -> None:
        if node.alive:
            return
        node.recover()
        self.counts.recoveries += 1
        self._log("recover", node.node_id)

    def _outage_start(self, outage: ModemOutage) -> None:
        modem = self._node_by_id[outage.node_id].modem
        if outage.direction in ("tx", "both"):
            modem.tx_enabled = False
            self.counts.tx_outages += 1
        if outage.direction in ("rx", "both"):
            modem.settle()
            modem.rx_enabled = False
            self.counts.rx_outages += 1
        self._log("outage_start", outage.node_id, outage.direction)

    def _outage_end(self, outage: ModemOutage) -> None:
        modem = self._node_by_id[outage.node_id].modem
        if outage.direction in ("tx", "both"):
            modem.tx_enabled = True
        if outage.direction in ("rx", "both"):
            modem.settle()
            modem.rx_enabled = True
        self._log("outage_end", outage.node_id, outage.direction)

    def _clock_fault(self, fault: ClockFault) -> None:
        node = self._node_by_id[fault.node_id]
        node.clock.apply_fault(
            offset_jump_s=fault.offset_jump_s, drift_ppm=fault.drift_ppm
        )
        self.counts.clock_faults += 1
        self._log(
            "clock",
            fault.node_id,
            f"jump={fault.offset_jump_s} drift={fault.drift_ppm}",
        )

    def _noise_start(self, burst: NoiseBurst) -> None:
        self.channel.extra_noise_db += burst.extra_noise_db
        self.counts.noise_bursts += 1
        self._log("noise_start", None, f"{burst.extra_noise_db:+g} dB")

    def _noise_end(self, burst: NoiseBurst) -> None:
        self.channel.extra_noise_db -= burst.extra_noise_db
        self._log("noise_end", None, f"{-burst.extra_noise_db:+g} dB")

    # ------------------------------------------------------------------
    def build_report(self, audit_violations: Sequence[str]) -> FaultReport:
        """Assemble the per-run fault report (called by ``Scenario._collect``)."""
        latencies = tuple(
            node.recovery_latency_s
            for node in self.nodes
            if node.recovery_latency_s is not None
        )
        counts = self.counts
        return FaultReport(
            events=tuple(self.events),
            crashes=counts.crashes,
            recoveries=counts.recoveries,
            tx_outages=counts.tx_outages,
            rx_outages=counts.rx_outages,
            clock_faults=counts.clock_faults,
            noise_bursts=counts.noise_bursts,
            wedged_handshakes=len(audit_violations),
            audit_violations=tuple(audit_violations),
            recovery_times_s=latencies,
        )
