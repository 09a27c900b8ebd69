"""Exact work counters and result digests for short cells of every MAC.

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
from repro.experiments.scale import scale_config
from repro.experiments.scenario import Scenario

#: The scale sweep's tiled 1,000-sensor mobile EW-MAC cell (seed 7, 30 s):
#: its link rows are mostly cold, so their fan-out is rebuilt often.
SCALE_CELL = "scale-1000-mobile"

#: Recorded before the receive path was slimmed (pruned-at-decode arrival
#: list, block PER draws, inlined event pop); that change kept them all.
#: ``events`` was re-recorded (23942 -> 17779 static, 23225 -> 17245
#: mobile) when arrivals that cannot decode even alone stopped scheduling
#: a finish event: every other count and both digests stayed put.
#: It was re-recorded again for every cell but ALOHA's (17779 -> 14566
#: static, 61826 -> 43635 EW-MAC batch) when idle nodes began to sleep
#: between slots instead of running a tick that has nothing to do; again
#: every other count and every digest stayed put, and ALOHA, which keeps
#: its own always-ticking engine, did not move at all.
PINNED = {
    "static": dict(
        events=14566,
        deliveries=10080,
        rx_ok=3439,
        rx_collision=826,
        rx_half_duplex=14,
        rx_noise=5658,
        digest="96486578c94171224748d12bcdfbf63aca68ee2edc1bd5807c5e719dc2d0da0a",
    ),
    "mobile": dict(
        events=14069,
        deliveries=9835,
        rx_ok=3275,
        rx_collision=770,
        rx_half_duplex=13,
        rx_noise=5514,
        digest="90618084cef0a5d903fa1b66bf3c357b10f307b71616564f282832ccb9c70da3",
    ),
    # The other four MACs on the same mobile cell, and one EW-MAC batch
    # drain (Fig. 8's chunked run loop), recorded before the end of the
    # Eq. (5) exchange got one shared definition in ``SlotTiming``.
    "S-FAMA-mobile": dict(
        events=14109,
        deliveries=9779,
        rx_ok=3274,
        rx_collision=799,
        rx_half_duplex=10,
        rx_noise=5505,
        digest="48a82b9fbd8891b7b019b41d9212bf4b43d78afb53dea18618485770e415a3cd",
    ),
    "ROPA-mobile": dict(
        events=14182,
        deliveries=9768,
        rx_ok=3306,
        rx_collision=779,
        rx_half_duplex=16,
        rx_noise=5579,
        digest="bb6d9c30663cf492853c455d3d780e1e93254dd15d9868e9116e479ec284a4c2",
    ),
    "CS-MAC-mobile": dict(
        events=21593,
        deliveries=14917,
        rx_ok=3766,
        rx_collision=4740,
        rx_half_duplex=94,
        rx_noise=5996,
        digest="fb6f0803930ce8fd9c22d1c695df433276ca5c8607a891f85c8d1b8513980526",
    ),
    "ALOHA-mobile": dict(
        events=19111,
        deliveries=10947,
        rx_ok=2799,
        rx_collision=3397,
        rx_half_duplex=84,
        rx_noise=4356,
        digest="d6fe27c8dbe3f2d9da522e3127da92db8e5c822988bbd96d04cf0535cbda62c0",
    ),
    "EW-MAC-batch": dict(
        events=43635,
        deliveries=29286,
        rx_ok=10439,
        rx_collision=2081,
        rx_half_duplex=68,
        rx_noise=16683,
        digest="5025e7e662a36a45099ce9ed4203fdb538487548d3d4abee1c120a8fc596a80b",
    ),
    # Every other MAC's static cell and batch drain, likewise recorded
    # before the shared Ack-end definition.
    "S-FAMA-static": dict(
        events=13808,
        deliveries=9470,
        rx_ok=3260,
        rx_collision=716,
        rx_half_duplex=15,
        rx_noise=5394,
        digest="74d7984789364b98702ec5083b7aaf218b0d1818e0dce5d1306208c1d6f6e06e",
    ),
    "ROPA-static": dict(
        events=15859,
        deliveries=10994,
        rx_ok=3655,
        rx_collision=1032,
        rx_half_duplex=17,
        rx_noise=6196,
        digest="09f2d442d7ad7fd85a2779c63b23695d01ae877e1d5c2f1c948d79468d7d762a",
    ),
    "CS-MAC-static": dict(
        events=19774,
        deliveries=13684,
        rx_ok=3595,
        rx_collision=3888,
        rx_half_duplex=95,
        rx_noise=5711,
        digest="8764b3f143c2aefd86ec09d2f286bfa9ef049578d6d7fc521a243882b4b27f5b",
    ),
    "ALOHA-static": dict(
        events=18578,
        deliveries=10487,
        rx_ok=2620,
        rx_collision=3491,
        rx_half_duplex=82,
        rx_noise=4129,
        digest="35b406cce096630168be4d0420ea4d9b2b40be6cee1c639741a2d88209d726fb",
    ),
    "S-FAMA-batch": dict(
        events=44939,
        deliveries=30475,
        rx_ok=10645,
        rx_collision=1949,
        rx_half_duplex=52,
        rx_noise=17809,
        digest="a4cb1ffda93d1a3fd1aabe928e2c3679182135a6031e889f6c6c5d44e6f7a137",
    ),
    "ROPA-batch": dict(
        events=54036,
        deliveries=37150,
        rx_ok=12198,
        rx_collision=4240,
        rx_half_duplex=88,
        rx_noise=20584,
        digest="2fbdc1ca033fb687e3ed85db9938d94b37a3f479a88c75637f77e768a48e2710",
    ),
    "CS-MAC-batch": dict(
        events=50506,
        deliveries=34908,
        rx_ok=9433,
        rx_collision=8032,
        rx_half_duplex=193,
        rx_noise=17148,
        digest="9fa6327bfb1bb2685fec04138f814cd2602b9f9481de51597cde566255dd7bc3",
    ),
    "ALOHA-batch": dict(
        events=44100,
        deliveries=20325,
        rx_ok=5431,
        rx_collision=5207,
        rx_half_duplex=133,
        rx_noise=9545,
        digest="402bd881a1ae8f53cf7af58513000ef07a295dbf4f32999b507a15d09c841e48",
    ),
    # Recorded before each link row's broadcast fan-out was stored as
    # float64 vectors and shared receive callbacks instead of per-entry
    # tuples and bound methods; that change kept it.
    SCALE_CELL: dict(
        events=73473,
        deliveries=52416,
        rx_ok=17245,
        rx_collision=4735,
        rx_half_duplex=73,
        rx_noise=30292,
        digest="0c81ee7d3d2f346626fe47b0b3848e2e309c2fefa19bb70ed48f05851a536e7b",
    ),
}

#: Table 2 cell -> (protocol, mobility, batch ``(n_packets, max_time_s)``
#: or None for a steady-state run).  Every one is seed 7 at 0.8 kbps over
#: 60 s.
CELLS = {
    "static": ("EW-MAC", False, None),
    "mobile": ("EW-MAC", True, None),
    "S-FAMA-mobile": ("S-FAMA", True, None),
    "ROPA-mobile": ("ROPA", True, None),
    "CS-MAC-mobile": ("CS-MAC", True, None),
    "ALOHA-mobile": ("ALOHA", True, None),
    "EW-MAC-batch": ("EW-MAC", False, (30, 600.0)),
    "S-FAMA-static": ("S-FAMA", False, None),
    "ROPA-static": ("ROPA", False, None),
    "CS-MAC-static": ("CS-MAC", False, None),
    "ALOHA-static": ("ALOHA", False, None),
    "S-FAMA-batch": ("S-FAMA", False, (30, 600.0)),
    "ROPA-batch": ("ROPA", False, (30, 600.0)),
    "CS-MAC-batch": ("CS-MAC", False, (30, 600.0)),
    "ALOHA-batch": ("ALOHA", False, (30, 600.0)),
}


def _digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cell_config(cell):
    """``(config, batch)`` of a pinned cell."""
    if cell == SCALE_CELL:
        return scale_config(1000, 30.0, seed=7), None
    protocol, mobility, batch = CELLS[cell]
    config = table2_config(
        protocol=protocol,
        offered_load_kbps=0.8,
        mobility=mobility,
        seed=7,
        sim_time_s=60.0,
    )
    return config, batch


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_work_counters_are_pinned(cell):
    config, batch = _cell_config(cell)
    scenario = Scenario(config)
    result = scenario.run_batch(*batch) if batch else scenario.run_steady_state()
    summary = result.to_dict()
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
