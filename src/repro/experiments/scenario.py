"""Scenario assembly: wire every substrate into a runnable simulation.

:class:`Scenario` builds, from a :class:`ScenarioConfig`: the DES kernel,
the acoustic channel, a connected water-column deployment, one node +
modem + MAC per sensor, depth routing, mobility, and a traffic source.
The link is Table 2's, fixed: the channel, the slot timing and the
deployment all take the same bitrate, range, sound speed and control
packet size constants from :mod:`repro.phy`.  Received data is always
relayed toward the surface, and the simulator runs with its no-op tracer.
It then runs either the Poisson steady-state experiment (Figs. 6/7/9/10/11)
or the batch-drain experiment (Fig. 8), and produces a
:class:`ScenarioResult` with every paper metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.ewmac.protocol import EwMac
from ..des.rng import derive_seed
from ..des.simulator import Simulator
from ..energy.model import EnergyReport, network_energy
from ..mac.base import SlottedMac
from ..mac.registry import get_protocol
from ..mac.slots import make_slot_timing
from ..metrics.efficiency import EfficiencyIndex, efficiency_index
from ..metrics.execution import (
    ExecutionResult,
    drain_toward_deadline,
    mean_delivery_delay_s,
)
from ..metrics.overhead import OverheadReport, network_overhead
from ..metrics.throughput import ThroughputReport, network_throughput
from ..metrics.utilization import UtilizationReport, network_utilization
from ..faults.audit import FaultAuditError, audit_macs
from ..faults.injector import FaultInjector, FaultReport
from ..net.clock import NodeClock
from ..net.node import Node
from ..perf import GLOBAL_PERF, PerfReport
from ..phy.channel import (
    DEFAULT_BITRATE_BPS,
    DEFAULT_RANGE_M,
    DEFAULT_SOUND_SPEED_MPS,
    AcousticChannel,
)
from ..phy.frame import CONTROL_PACKET_BITS
from ..topology.deployment import (
    DeploymentConfig,
    connected_column_deployment,
    tiled_column_deployment,
)
from ..topology.mobility import MobilityManager
from ..topology.routing import DepthRouting
from ..traffic.generators import BatchWorkload, PoissonTraffic
from .config import ScenarioConfig


@dataclass
class ScenarioResult:
    """Every metric the paper's figures consume, for one run."""

    protocol: str
    config: ScenarioConfig
    throughput: ThroughputReport
    energy: EnergyReport
    overhead: OverheadReport
    efficiency: EfficiencyIndex
    utilization: UtilizationReport
    collisions: int
    mean_delay_s: float
    #: Counter snapshot for the perf layer.  Deliberately excluded from
    #: :meth:`to_dict`: wall time is machine-dependent, and figures and the
    #: result cache compare that summary bit for bit.
    perf: PerfReport
    execution: Optional[ExecutionResult] = None
    extra_completed: int = 0
    offered_bits: int = 0
    #: Degradation report, present iff the scenario ran with a non-empty
    #: fault plan (fault event log, recovery metrics, audit outcome).
    faults: Optional[FaultReport] = None

    @property
    def throughput_kbps(self) -> float:
        return self.throughput.kbps

    @property
    def power_mw(self) -> float:
        return self.energy.average_power_mw

    @property
    def overhead_units(self) -> float:
        return self.overhead.total_units

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of the offered traffic (degradation metric)."""
        if self.offered_bits <= 0:
            return 0.0
        return self.throughput.total_bits / self.offered_bits

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly summary (for EXPERIMENTS.md tooling / CI)."""
        summary: Dict[str, object] = {
            "protocol": self.protocol,
            "offered_load_kbps": self.config.offered_load_kbps,
            "n_sensors": self.config.n_sensors,
            "seed": self.config.seed,
            "throughput_kbps": self.throughput_kbps,
            "power_mw": self.power_mw,
            "efficiency": self.efficiency.value,
            "overhead_units": self.overhead_units,
            "data_utilization": self.utilization.data_utilization,
            "airtime_utilization": self.utilization.airtime_utilization,
            "collisions": self.collisions,
            "mean_delay_s": self.mean_delay_s,
            "extra_completed": self.extra_completed,
            "offered_bits": self.offered_bits,
        }
        if self.execution is not None:
            summary["drain_time_s"] = self.execution.drain_time_s
            summary["timed_out"] = self.execution.timed_out
        if self.faults is not None:
            # Fault-free runs add no keys at all: downstream exports stay
            # byte-for-byte identical when no plan was configured.
            summary["delivery_ratio"] = self.delivery_ratio
            summary.update(self.faults.to_dict())
        return summary


class Scenario:
    """A fully wired simulation instance."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.sim = Simulator(seed=config.seed)
        deploy = (
            tiled_column_deployment
            if config.deployment == "tiled"
            else connected_column_deployment
        )
        self.deployment = deploy(
            DeploymentConfig(
                n_sensors=config.n_sensors,
                n_sinks=config.n_sinks,
                side_x_m=config.side_m,
                side_y_m=config.side_m,
                depth_m=config.side_m,
                comm_range_m=DEFAULT_RANGE_M,
                seed=derive_seed(config.seed, "deployment"),
            )
        )
        self.channel = AcousticChannel(
            self.sim,
            bitrate_bps=DEFAULT_BITRATE_BPS,
            max_range_m=DEFAULT_RANGE_M,
            interference_range_factor=config.interference_range_factor,
            sound_speed_mps=DEFAULT_SOUND_SPEED_MPS,
        )
        self.timing = make_slot_timing(
            bitrate_bps=DEFAULT_BITRATE_BPS,
            control_bits=CONTROL_PACKET_BITS,
            max_range_m=DEFAULT_RANGE_M,
            speed_mps=DEFAULT_SOUND_SPEED_MPS,
        )
        sink_set = set(self.deployment.sink_ids)
        clock_rng = self.sim.streams.get("clocks")

        def _make_clock() -> NodeClock:
            # One draw per node, in node order, and only when the std is
            # nonzero, so a synchronized run consumes no "clocks" RNG.
            offset = (
                float(clock_rng.normal(0.0, config.clock_offset_std_s))
                if config.clock_offset_std_s > 0
                else 0.0
            )
            return NodeClock(self.sim, offset_s=offset)

        self.nodes: List[Node] = [
            Node(
                self.sim,
                node_id,
                position,
                self.channel,
                is_sink=node_id in sink_set,
                clock=_make_clock(),
            )
            for node_id, position in enumerate(self.deployment.positions)
        ]
        protocol_cls = get_protocol(config.protocol)
        mac_kwargs = (
            {"exr_randomize": config.exr_randomize}
            if issubclass(protocol_cls, EwMac)
            else {}
        )
        self.macs: List[SlottedMac] = [
            protocol_cls(self.sim, node, self.channel, self.timing, **mac_kwargs)
            for node in self.nodes
        ]
        if config.max_retries is not None:
            for mac in self.macs:
                mac.max_retries = config.max_retries
        self.routing = DepthRouting(self.channel, self.deployment.sink_ids)
        for mac in self.macs:
            mac.on_data_delivered = self._forward
        self.mobility: Optional[MobilityManager] = None
        if config.mobility:
            self.mobility = MobilityManager(self.sim, self.nodes, self.deployment.config)
        self.traffic: Optional[PoissonTraffic] = None
        self.batch: Optional[BatchWorkload] = None
        # The injector exists only for a non-empty plan: an empty plan
        # must leave the event heap and RNG stream set untouched so the
        # figure pipeline stays bit-identical to a fault-free build.
        self.injector: Optional[FaultInjector] = None
        if config.faults:
            self.injector = FaultInjector(
                self.sim, self.nodes, self.channel, config.faults
            )
        self._started = False

    # ------------------------------------------------------------------
    def _forward(self, node: Node, src: int, size_bits: int) -> None:
        """Multi-hop relay: received data continues toward the surface."""
        if node.is_sink:
            return
        next_hop = self.routing.next_hop(node.node_id)
        if next_hop is not None and next_hop != src:
            node.enqueue_data(next_hop, size_bits)

    def _start_common(self) -> None:
        if self._started:
            raise RuntimeError("scenario already started")
        self._started = True
        for mac in self.macs:
            mac.start()
        if self.mobility is not None:
            self.mobility.start()
        if self.injector is not None:
            self.injector.arm()

    # ------------------------------------------------------------------
    def run_steady_state(self) -> ScenarioResult:
        """Poisson offered load over the Table 2 window (Figs. 6/7/9/10/11)."""
        config = self.config
        self._start_common()
        self.traffic = PoissonTraffic(
            self.sim,
            self.nodes,
            self.routing,
            offered_load_kbps=config.offered_load_kbps,
            packet_bits=config.data_packet_bits,
            rng=self.sim.streams.get("traffic"),
        )
        self.sim.schedule_at(config.warmup_s, self.traffic.start)
        self.sim.run(until=config.warmup_s + config.sim_time_s)
        return self._collect(duration_s=config.sim_time_s)

    def run_batch(self, n_packets: int, max_time_s: float) -> ScenarioResult:
        """Fixed batch drained to completion (Fig. 8 execution time)."""
        if max_time_s <= 0:
            raise ValueError("max_time_s must be positive")
        config = self.config
        self._start_common()
        self.batch = BatchWorkload(
            self.sim,
            self.nodes,
            self.routing,
            n_packets=n_packets,
            packet_bits=config.data_packet_bits,
            rng=self.sim.streams.get("traffic"),
        )
        self.sim.schedule_at(config.warmup_s, self.batch.start)
        self.sim.run(until=config.warmup_s + 1e-6)
        execution = drain_toward_deadline(self.sim, self.batch, max_time_s)
        duration = max(execution.drain_time_s - config.warmup_s, 1e-6)
        result = self._collect(duration_s=duration)
        result.execution = execution
        return result

    # ------------------------------------------------------------------
    def _collect(self, duration_s: float) -> ScenarioResult:
        throughput = network_throughput(self.macs, duration_s)
        energy = network_energy(self.macs, duration_s)
        overhead = network_overhead(self.macs)
        collisions = sum(m.node.modem.stats.rx_collision for m in self.macs)
        extra = sum(
            getattr(getattr(m, "extra_stats", None), "completed", 0) for m in self.macs
        )
        offered = 0
        if self.traffic is not None:
            offered = self.traffic.stats.bits
        elif self.batch is not None:
            offered = self.batch.stats.bits
        faults_report: Optional[FaultReport] = None
        if self.injector is not None:
            violations = audit_macs(self.macs)
            faults_report = self.injector.build_report(violations)
            if self.config.faults.strict_audit and violations:
                raise FaultAuditError(violations)
        perf = PerfReport.capture(self.sim, self.channel.stats, duration_s)
        GLOBAL_PERF.add(perf)
        return ScenarioResult(
            protocol=self.config.protocol,
            config=self.config,
            throughput=throughput,
            energy=energy,
            overhead=overhead,
            efficiency=efficiency_index(throughput, energy),
            utilization=network_utilization(
                self.macs, duration_s, self.channel.bitrate_bps
            ),
            collisions=collisions,
            mean_delay_s=mean_delivery_delay_s(self.nodes),
            extra_completed=extra,
            offered_bits=offered,
            faults=faults_report,
            perf=perf,
        )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build and run one steady-state scenario."""
    return Scenario(config).run_steady_state()
