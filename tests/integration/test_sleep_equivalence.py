"""Idle nodes sleep between slots: the event-driven engine against the reference.

``SlottedMac._can_sleep`` is the one place the slot engine decides that a
node may skip boundaries.  Patched to answer "never", the same engine
re-arms every node's tick at every boundary: the always-ticking reference.
Sleeping may change how many events run, never what happens, so results,
per-node modem and MAC counters and fault reports must match exactly —
across every MAC, static and mobile, synchronized and offset clocks, each
fault kind, steady-state and batch runs — and a node woken exactly at a
boundary instant must act in the slot the reference acts in.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.acoustic.geometry import Position
from repro.des.events import PRIORITY_HIGH, PRIORITY_LOW
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from repro.faults.plan import ClockFault, CrashWave, FaultPlan, ModemOutage
from repro.mac.base import SlottedMac
from repro.mac.registry import get_protocol
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame
from repro.phy.modem import Arrival

PROTOCOLS = ("EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "ALOHA")
WARMUP_S = 10.0
SIM_TIME_S = 100.0

FAULTS = {
    "none": FaultPlan(),
    "crash-wave": FaultPlan(
        waves=(
            CrashWave(
                at_s=WARMUP_S + 25.0, fraction=0.3, recover_after_s=30.0, jitter_s=3.0
            ),
        )
    ),
    "outage": FaultPlan(
        outages=(
            ModemOutage(node_id=1, at_s=WARMUP_S + 10.0, duration_s=20.0, direction="tx"),
            ModemOutage(node_id=2, at_s=WARMUP_S + 15.0, duration_s=20.0, direction="rx"),
            ModemOutage(node_id=3, at_s=WARMUP_S + 40.0, duration_s=10.0),
        )
    ),
    # Jumps back, forward by more than a slot (the re-armed ticks then run
    # back to back until the local grid catches up) and a drift step.
    "clock": FaultPlan(
        clock_faults=(
            ClockFault(node_id=1, at_s=WARMUP_S + 20.0, offset_jump_s=-0.6),
            ClockFault(node_id=2, at_s=WARMUP_S + 30.0, offset_jump_s=2.7),
            ClockFault(node_id=3, at_s=WARMUP_S + 45.0, offset_jump_s=0.3, drift_ppm=40.0),
            ClockFault(node_id=4, at_s=WARMUP_S + 50.0, drift_ppm=-25.0),
        )
    ),
}


def never_sleep(monkeypatch) -> None:
    monkeypatch.setattr(SlottedMac, "_can_sleep", lambda self: False)


def observe(config, batch):
    scenario = Scenario(config)
    result = scenario.run_batch(12, 300.0) if batch else scenario.run_steady_state()
    return dict(
        result=result.to_dict(),
        faults=result.faults,
        modem=[dataclasses.asdict(node.modem.stats) for node in scenario.nodes],
        mac=[dataclasses.asdict(mac.stats) for mac in scenario.macs],
        app=[dataclasses.asdict(node.app_stats) for node in scenario.nodes],
        events=scenario.sim.events_processed,
    )


@pytest.mark.parametrize("batch", (False, True), ids=("steady", "batch"))
@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("offset", (0.0, 0.1), ids=("synced", "offset"))
@pytest.mark.parametrize("mobility", (False, True), ids=("static", "mobile"))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sleeping_matches_always_ticking(
    monkeypatch, protocol, mobility, offset, faults, batch
):
    config = table2_config(
        protocol=protocol,
        n_sensors=16,
        offered_load_kbps=0.8,
        mobility=mobility,
        clock_offset_std_s=offset,
        warmup_s=WARMUP_S,
        sim_time_s=SIM_TIME_S,
        seed=11,
        faults=FAULTS[faults],
    )
    sleeping = observe(config, batch)
    with monkeypatch.context() as patch:
        never_sleep(patch)
        reference = observe(config, batch)
    events, reference_events = sleeping.pop("events"), reference.pop("events")
    assert sleeping == reference
    if protocol == "ALOHA":  # keeps its own global-grid tick and never sleeps
        assert events == reference_events
    else:
        assert events < reference_events


# ----------------------------------------------------------------------
# A wake at exactly a boundary instant, on both sides of the node's tick
# ----------------------------------------------------------------------
TIMING = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
#: A boundary well after the hello phase, when both nodes are asleep.
BOUNDARY = 20


def build_pair(protocol="S-FAMA"):
    sim = Simulator(seed=5, tracer=Tracer())
    channel = AcousticChannel(sim)
    nodes, macs = [], []
    for node_id, x in enumerate((0.0, 900.0)):
        node = Node(sim, node_id, Position(x, 0.0, 100.0), channel)
        mac = get_protocol(protocol)(sim, node, channel, TIMING)
        mac.hello_window_s = 2.0
        nodes.append(node)
        macs.append(mac)
    for mac in macs:
        mac.start()
    return sim, nodes, macs


def sent_frames(sim):
    return [(r.time, r.node, r.detail["frame"]) for r in sim.trace.select("phy.tx")]


def schedule_on_boundary(sim, callback, side):
    """Run ``callback`` at slot ``BOUNDARY``'s start, before or after its ticks.

    Ticks run at normal priority with the queue position taken one
    boundary earlier, so an event pushed up front at normal priority, or
    at any time at high priority, runs first; one at low priority, or one
    pushed after the previous boundary at normal priority, runs after.
    """
    at = TIMING.slot_start(BOUNDARY)
    if side == "before-normal":
        sim.schedule_at(at, callback)
    elif side == "before-high":
        sim.schedule_at(at - 0.5, lambda: sim.schedule_at(at, callback, priority=PRIORITY_HIGH))
    elif side == "after-low":
        sim.schedule_at(at, callback, priority=PRIORITY_LOW)
    else:
        assert side == "after-normal"
        sim.schedule_at(at - 0.5, lambda: sim.schedule_at(at, callback))


def run_both(monkeypatch, scenario):
    sleeping = scenario()
    with monkeypatch.context() as patch:
        never_sleep(patch)
        reference = scenario()
    return sleeping, reference


SIDES = ("before-normal", "before-high", "after-low", "after-normal")


@pytest.mark.parametrize("protocol", ("S-FAMA", "EW-MAC", "ROPA", "CS-MAC"))
@pytest.mark.parametrize("side", SIDES)
def test_enqueue_exactly_at_a_boundary(monkeypatch, protocol, side):
    def scenario():
        sim, nodes, macs = build_pair(protocol)
        schedule_on_boundary(sim, lambda: nodes[0].enqueue_data(1, 1024), side)
        sim.run(until=TIMING.slot_start(BOUNDARY) - 0.1)
        asleep = macs[0]._sleep is not None
        sim.run(until=60.0)
        return asleep, sent_frames(sim), macs[0].stats.wait_slots, nodes[0].app_stats.sent

    sleeping, reference = run_both(monkeypatch, scenario)
    assert sleeping[0] and not reference[0]  # the sleep path was exercised
    assert sleeping[1:] == reference[1:]
    rts_time = next(t for t, node, frame in reference[1] if frame == "RTS 0->1")
    before = side.startswith("before")
    assert rts_time == TIMING.slot_start(BOUNDARY if before else BOUNDARY + 1)


@pytest.mark.parametrize("protocol", ("S-FAMA", "EW-MAC", "ROPA", "CS-MAC"))
@pytest.mark.parametrize("side", SIDES)
def test_addressed_rts_ending_exactly_at_a_boundary(monkeypatch, protocol, side):
    def deliver_rts(mac):
        end = mac.sim.now
        frame = control_frame(
            FrameType.RTS, 1, 0, end - 0.6 - TIMING.omega_s, pair_delay_s=0.6,
            rp=0.5, data_bits=1024,
        )
        arrival = Arrival(frame, 1, end - TIMING.omega_s, end, -30.0, 0.6)
        mac._on_modem_receive(frame, arrival)

    def scenario():
        sim, nodes, macs = build_pair(protocol)
        schedule_on_boundary(sim, lambda: deliver_rts(macs[0]), side)
        sim.run(until=TIMING.slot_start(BOUNDARY) - 0.1)
        asleep = macs[0]._sleep is not None
        sim.run(until=60.0)
        return asleep, sent_frames(sim), macs[0].stats.ctrl_sent_bits

    sleeping, reference = run_both(monkeypatch, scenario)
    assert sleeping[0] and not reference[0]
    assert sleeping[1:] == reference[1:]
    # A boundary's tick grants the RTSs that arrived before it ran.
    cts_time = next(t for t, node, frame in reference[1] if frame == "CTS 0->1")
    before = side.startswith("before")
    assert cts_time == TIMING.slot_start(BOUNDARY if before else BOUNDARY + 1)


@pytest.mark.parametrize("protocol", ("S-FAMA", "EW-MAC", "ROPA", "CS-MAC"))
def test_wake_inside_a_clock_jump_burst(monkeypatch, protocol):
    """A forward jump of over a slot re-arms ticks back to back at one instant.

    The clock fault wakes the sleeping node, which ticks at its old-grid
    boundary and falls asleep in the burst that follows; an enqueue at
    that instant, pushed before the burst ran, must meet the burst's next
    tick there and then.
    """
    boundary = TIMING.slot_start(TIMING.next_slot_index(20.3))

    def scenario():
        sim, nodes, macs = build_pair(protocol)
        sim.schedule_at(20.3, lambda: nodes[0].clock.apply_fault(offset_jump_s=2.5))
        sim.schedule_at(
            boundary - 0.5,
            lambda: sim.schedule_at(boundary, nodes[0].enqueue_data, 1, 1024),
        )
        sim.run(until=20.0)
        asleep = macs[0]._sleep is not None
        sim.run(until=60.0)
        return asleep, sent_frames(sim), macs[0].stats.wait_slots

    sleeping, reference = run_both(monkeypatch, scenario)
    assert sleeping[0] and not reference[0]
    assert sleeping[1:] == reference[1:]
    rts_time = next(t for t, node, frame in reference[1] if frame == "RTS 0->1")
    assert rts_time == boundary


@pytest.mark.parametrize("protocol", ("ROPA", "CS-MAC"))
def test_clock_fault_on_a_sleeping_node_rederives_its_maintenance_wake(
    monkeypatch, protocol
):
    def scenario():
        sim, nodes, macs = build_pair(protocol)
        for mac in macs:
            mac._next_maintenance = 40.0
        sim.run(until=25.0)
        asleep = macs[0]._sleep is not None
        wake_before = macs[0]._slot_event.time if asleep else None
        nodes[0].clock.apply_fault(offset_jump_s=-0.4, drift_ppm=30.0)
        sim.run(until=30.0)
        rearmed = macs[0]._slot_event.time if macs[0]._sleep is not None else None
        sim.run(until=60.0)
        maintenance = [t for t, node, frame in sent_frames(sim) if frame == "NEIGH 0->bcast"]
        return asleep, wake_before, rearmed, maintenance

    sleeping, reference = run_both(monkeypatch, scenario)
    asleep, wake_before, rearmed, maintenance = sleeping
    assert asleep and wake_before is not None
    # The wake moved with the clock: the node's boundaries are ~0.4 s later.
    assert rearmed is not None
    assert rearmed - wake_before == pytest.approx(0.4, abs=0.01)
    assert maintenance and maintenance == reference[3]


@pytest.mark.parametrize("protocol", ("S-FAMA", "EW-MAC", "ROPA", "CS-MAC"))
def test_restart_leaves_no_stale_sleep(protocol):
    sim, nodes, macs = build_pair(protocol)
    sim.run(until=25.0)
    assert macs[0]._sleep is not None
    nodes[0].fail()
    assert macs[0]._sleep is None and macs[0]._slot_event is None
    macs[0].notify_queue()  # a dead node's MAC must not wake
    assert macs[0]._slot_event is None
    sim.run(until=30.0)
    nodes[0].recover()
    assert macs[0]._sleep is None and macs[0]._slot_event.pending
    nodes[0].enqueue_data(1, 1024)
    sim.run(until=60.0)
    assert nodes[0].app_stats.sent == 1
