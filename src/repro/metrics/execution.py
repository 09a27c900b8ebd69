"""Execution-time metric (paper Fig. 8).

"The time for successful transmission is another important index": inject
a fixed batch of packets and measure how long the network takes to deliver
all of them.  The drain time is the latest ``note_sent`` instant across
sources (recorded by :class:`~repro.net.node.AppStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..des.simulator import Simulator
from ..net.node import Node
from ..traffic.generators import BatchWorkload


@dataclass
class ExecutionResult:
    """Outcome of a batch-drain run."""

    injected: int
    completed: int
    drain_time_s: float
    timed_out: bool


def drain_toward_deadline(
    sim: Simulator,
    workload: BatchWorkload,
    max_time_s: float,
    check_interval_s: float = 1.0,
) -> ExecutionResult:
    """Advance the simulation until the batch drains (or ``max_time_s`` passes).

    The simulation is advanced in ``check_interval_s`` chunks, up to
    ``max_time_s`` of simulated time from now.  The drain time is the last
    successful completion when that is the terminal event, otherwise the
    (chunk-resolution) instant the network went idle.
    """
    deadline_s = sim.now + max_time_s
    while sim.now < deadline_s:
        if workload.all_drained():
            break
        sim.run(until=min(sim.now + check_interval_s, deadline_s))
    drained = workload.all_drained()
    last_sent = max(
        (n.app_stats.last_sent_at for n in workload.sources), default=0.0
    )
    if drained:
        # the network went idle within the last chunk; the last ack is the
        # sharper estimate when it is the terminal event
        drain_time = max(last_sent, sim.now - check_interval_s)
    else:
        drain_time = max_time_s
    return ExecutionResult(
        injected=workload.stats.packets,
        completed=workload.sent_packets(),
        drain_time_s=drain_time,
        timed_out=not drained,
    )


def mean_delivery_delay_s(nodes: Sequence[Node]) -> float:
    """Mean per-packet enqueue-to-ack delay over all source nodes."""
    total_delay = sum(n.app_stats.delivery_delay_total_s for n in nodes)
    total_sent = sum(n.app_stats.sent for n in nodes)
    return total_delay / total_sent if total_sent else 0.0
