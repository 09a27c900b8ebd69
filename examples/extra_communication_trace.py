#!/usr/bin/env python3
"""Reproduce the paper's Figs. 2, 4 and 5 as an event timeline.

Three sensors — a hub *j* and two contenders *i* and *k* — contend for the
same receiver in the same slot.  The winner runs a normal four-way
handshake; the loser exploits the waiting periods with EW-MAC's extra
communication (EXR -> EXC -> EXData -> EXAck, timed by the paper's Eq. 6).
The script prints the full over-the-air timeline with slot annotations so
the exploited idle windows are visible.

Run:
    python examples/extra_communication_trace.py
"""

from repro.acoustic.geometry import Position
from repro.core.ewmac import EwMac
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.mac.slots import make_slot_timing
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


def build_and_run(seed: int):
    sim = Simulator(seed=seed, tracer=Tracer())
    channel = AcousticChannel(sim)
    timing = make_slot_timing(12_000.0, 64, 1500.0, 1500.0)
    positions = {
        "j (hub)": Position(0, 0, 100),
        "i (loser)": Position(0, 450, 100),   # tau_ij = 0.30 s
        "k (winner)": Position(600, 0, 100),  # tau_jk = 0.40 s
    }
    nodes = []
    for node_id, (label, pos) in enumerate(positions.items()):
        node = Node(sim, node_id, pos, channel)
        mac = EwMac(sim, node, channel, timing)
        mac.hello_window_s = 2.0
        nodes.append((label, node, mac))
    # both contenders want to send 2048-bit packets to the hub
    nodes[1][1].enqueue_data(0, 2048)
    nodes[2][1].enqueue_data(0, 2048)
    for _, _, mac in nodes:
        mac.start()
    sim.run(until=120.0)
    return sim, nodes, timing


def main() -> None:
    # some seeds resolve by plain backoff; scan for one where the loser
    # completes an extra communication (like the paper's Figs. 4-5 example)
    for seed in range(60):
        sim, nodes, timing = build_and_run(seed)
        if sum(mac.extra_stats.completed for _, _, mac in nodes) >= 1:
            break
    else:
        raise SystemExit("no seed exercised the extra path — unexpected")

    from repro.experiments.timeline import (
        extra_exploitation_summary,
        extract_timeline,
        format_timeline,
    )

    labels = {node.node_id: label for label, node, _ in nodes}
    print(f"seed {seed}: extra communication completed\n")
    print(f"slot duration |ts| = {timing.slot_s:.4f} s "
          f"(omega {timing.omega_s * 1000:.2f} ms + tau_max {timing.tau_max_s:.2f} s)\n")
    entries = extract_timeline(sim, timing)
    print(format_timeline(entries, labels=labels))
    summary = extra_exploitation_summary(entries)
    print(f"\non-grid negotiated frames : {summary['negotiated_on_grid']}")
    print(f"off-grid extra frames     : {summary['extra_off_grid']}")
    print()
    for label, node, mac in nodes:
        es = mac.extra_stats
        print(
            f"{label:12s} sent={node.app_stats.sent} delivered={node.app_stats.delivered} "
            f"extra: requested={es.requested} granted={es.grants_issued} "
            f"completed={es.completed}"
        )
    print("\nNote how EXR/EXC/EXDATA/EXACK start *off* the slot grid — they")
    print("ride the idle waiting periods (paper Fig. 2, blocks I-VII) that")
    print("slotted protocols normally waste.")


if __name__ == "__main__":
    main()
