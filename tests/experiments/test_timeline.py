"""Tests for the timeline rendering, asserting the paper's grid claim."""

import pytest

from repro.acoustic.geometry import Position
from repro.core.ewmac import EwMac
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.experiments.timeline import (
    TimelineEntry,
    extra_exploitation_summary,
    extract_timeline,
    format_timeline,
)
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def run_triangle(seed):
    sim = Simulator(seed=seed, tracer=Tracer())
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    positions = [Position(0, 0, 100), Position(0, 450, 100), Position(600, 0, 100)]
    nodes = []
    for node_id, pos in enumerate(positions):
        node = Node(sim, node_id, pos, channel)
        mac = EwMac(sim, node, channel, timing)
        mac.hello_window_s = 2.0
        mac.start()
        nodes.append((node, mac))
    nodes[1][0].enqueue_data(0, 2048)
    nodes[2][0].enqueue_data(0, 2048)
    sim.run(until=120.0)
    extras = sum(m.extra_stats.completed for _, m in nodes)
    return sim, timing, extras


@pytest.fixture(scope="module")
def traced_run():
    for seed in range(40):
        sim, timing, extras = run_triangle(seed)
        if extras >= 1:
            return sim, timing
    pytest.fail("no seed exercised the extra path")


def test_extract_skips_hello(traced_run):
    sim, timing = traced_run
    entries = extract_timeline(sim, timing)
    assert entries
    assert all(e.kind != "HELLO" for e in entries)


def test_negotiated_frames_on_grid_extras_off(traced_run):
    """The paper's Sec. 4.1 rule, checked mechanically."""
    sim, timing = traced_run
    summary = extra_exploitation_summary(extract_timeline(sim, timing))
    assert summary["negotiated_on_grid"] >= 4  # RTS, CTS, DATA, ACK at least
    assert summary["negotiated_off_grid"] == 0
    assert summary["extra_off_grid"] >= 4      # EXR, EXC, EXDATA, EXACK
    assert summary["extra_on_grid"] == 0


def test_entries_sorted_by_time(traced_run):
    sim, timing = traced_run
    entries = extract_timeline(sim, timing)
    times = [e.time for e in entries]
    assert times == sorted(times)


def test_format_timeline_readable(traced_run):
    sim, timing = traced_run
    entries = extract_timeline(sim, timing)
    text = format_timeline(entries, labels={0: "hub"})
    assert "hub" in text
    assert "on-grid" in text
    assert "sends RTS" in text


def test_entry_properties():
    entry = TimelineEntry(time=4.02, slot=4, slot_offset=0.0, node=1, frame="RTS 1->0")
    assert entry.on_grid
    assert entry.kind == "RTS"
    off = TimelineEntry(time=4.52, slot=4, slot_offset=0.5, node=1, frame="EXR 1->0")
    assert not off.on_grid
