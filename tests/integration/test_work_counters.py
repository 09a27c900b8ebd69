"""Exact work counters and result digests for two short EW-MAC cells.

Counters such as events processed have no noise, so they are gated
exactly: a change that alters the simulation's work or its output — a
"speed-up" that drops, adds or reorders events, deliveries or decodes —
fails here even when every looser test still passes.  A change that means
to alter them must re-record these values and explain why in its commit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario

#: Recorded before the receive path was slimmed (pruned-at-decode arrival
#: list, block PER draws, inlined event pop); that change kept them all.
#: ``events`` was re-recorded (23942 -> 17779 static, 23225 -> 17245
#: mobile) when arrivals that cannot decode even alone stopped scheduling
#: a finish event: every other count and both digests stayed put.
PINNED = {
    "static": dict(
        events=17779,
        deliveries=10080,
        rx_ok=3439,
        rx_collision=826,
        rx_half_duplex=14,
        rx_noise=5658,
        digest="96486578c94171224748d12bcdfbf63aca68ee2edc1bd5807c5e719dc2d0da0a",
    ),
    "mobile": dict(
        events=17245,
        deliveries=9835,
        rx_ok=3275,
        rx_collision=770,
        rx_half_duplex=13,
        rx_noise=5514,
        digest="90618084cef0a5d903fa1b66bf3c357b10f307b71616564f282832ccb9c70da3",
    ),
}


def _digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_work_counters_are_pinned(cell):
    config = table2_config(
        protocol="EW-MAC",
        offered_load_kbps=0.8,
        mobility=cell == "mobile",
        seed=7,
        sim_time_s=60.0,
    )
    scenario = Scenario(config)
    summary = scenario.run_steady_state().to_dict()
    stats = [node.modem.stats for node in scenario.nodes]
    measured = dict(
        events=scenario.sim.events_processed,
        deliveries=scenario.channel.stats.deliveries,
        rx_ok=sum(s.rx_ok for s in stats),
        rx_collision=sum(s.rx_collision for s in stats),
        rx_half_duplex=sum(s.rx_half_duplex for s in stats),
        rx_noise=sum(s.rx_noise for s in stats),
        digest=_digest(summary),
    )
    assert measured == PINNED[cell]
