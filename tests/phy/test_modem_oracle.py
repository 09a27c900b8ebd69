"""The production receive path against the unpruned reference modem.

Production prunes its arrival and transmission lists to one on-air
duration, and settles arrivals that cannot decode even alone without a
finish event or a decode.  The oracle
(:class:`~tests.reference_modem.ReferenceModem`) keeps everything and
gives every arrival a finish event and a full decode.  On collision-heavy,
faulted and traced cells both must produce the same per-modem outcome
counts and the same scenario result, and every decode production does
make must see the oracle's SINR bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.des.simulator as simulator_module
import repro.phy.channel as channel_module
from repro.acoustic.geometry import Position
from repro.acoustic.sinr import LinkBudget
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashWave, FaultPlan, ModemOutage, NodeCrash, NoiseBurst
from repro.net.node import Node
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame
from repro.phy.modem import AcousticModem
from tests.reference_modem import ReferenceModem

#: A crash with recovery, a jittered crash wave without, an RX outage, a
#: raising and a quieting burst, all inside the 10-40 s run of a cell.
CHAOS = FaultPlan(
    crashes=(NodeCrash(node_id=5, at_s=15.0, recover_after_s=8.0),),
    waves=(CrashWave(at_s=20.0, fraction=0.3, jitter_s=2.0),),
    outages=(ModemOutage(node_id=7, at_s=12.0, duration_s=6.0, direction="rx"),),
    noise_bursts=(
        NoiseBurst(at_s=18.0, duration_s=5.0, extra_noise_db=6.0),
        NoiseBurst(at_s=26.0, duration_s=6.0, extra_noise_db=-3.0),
    ),
    strict_audit=False,
)

#: ``name -> (config overrides, dense)``.  ``dense`` cells must also sum
#: SINRs over several interferers.
CELLS = {
    # The densest paper cell: CS-MAC, 200 nodes, 1.0 kbps.
    "csmac-200": (
        dict(protocol="CS-MAC", n_sensors=200, offered_load_kbps=1.0, seed=3),
        True,
    ),
    # Mobile ALOHA at high load: rows re-classified every mobility tick,
    # many overlapping arrivals.
    "aloha-mobile": (
        dict(protocol="ALOHA", offered_load_kbps=1.5, mobility=True, seed=29),
        True,
    ),
    # A wider interference reach: more distant interferers overlap each
    # decode than at the default factor of 2.
    "sfama-far-interference": (
        dict(protocol="S-FAMA", offered_load_kbps=1.0, interference_range_factor=3.0, seed=23),
        False,
    ),
    # ROPA, so that every MAC runs through the oracle.
    "ropa": (
        dict(protocol="ROPA", offered_load_kbps=1.0, seed=31),
        False,
    ),
    # Flag flips and a floor below ambient while arrivals are unsettled.
    "ewmac-chaos": (
        dict(protocol="EW-MAC", offered_load_kbps=1.0, seed=11, faults=CHAOS),
        False,
    ),
    # Tracing on (see TRACED): settled failures are traced late, with
    # their end time.
    "ewmac-traced": (
        dict(protocol="EW-MAC", offered_load_kbps=0.8, seed=7),
        False,
    ),
}

#: Cells run with a recording :class:`Tracer` in place of the simulator's
#: no-op tracer.
TRACED = {"ewmac-traced"}

OUTCOMES = ("rx_ok", "rx_ok_bits", "rx_half_duplex", "rx_collision", "rx_noise", "rx_outage")


def _run(config, patch, modem_cls):
    """Run ``config``; record every decode's ``(signal level, SINR)`` in order."""
    decodes = []
    decoding = []
    finish = modem_cls._finish_arrival
    sinr_db_from_levels = LinkBudget.sinr_db_from_levels

    def recording_finish(self, arrival):
        decoding.append(arrival)
        try:
            finish(self, arrival)
        finally:
            decoding.clear()

    def recording_sinr(self, signal_level_db, *args, **kwargs):
        sinr_db = sinr_db_from_levels(self, signal_level_db, *args, **kwargs)
        if decoding:  # the decode's own SINR, not a classification's
            decodes.append((signal_level_db, sinr_db))
            decoding.clear()
        return sinr_db

    patch.setattr(modem_cls, "_finish_arrival", recording_finish)
    patch.setattr(LinkBudget, "sinr_db_from_levels", recording_sinr)
    scenario = Scenario(config)
    result = scenario.run_steady_state()
    counts = [
        tuple(getattr(node.modem.stats, name) for name in OUTCOMES) for node in scenario.nodes
    ]
    return scenario, result.to_dict(), counts, decodes


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_production_matches_unpruned_reference(monkeypatch, cell):
    overrides, dense = CELLS[cell]
    config = table2_config(sim_time_s=30.0, **overrides)
    if cell in TRACED:
        monkeypatch.setattr(simulator_module, "NullTracer", Tracer)
    with monkeypatch.context() as patch:
        production, result, counts, decodes = _run(config, patch, AcousticModem)
    with monkeypatch.context() as patch:
        patch.setattr(channel_module, "AcousticModem", ReferenceModem)
        reference, oracle, oracle_counts, oracle_decodes = _run(
            config, patch, ReferenceModem
        )
    modems = [node.modem for node in reference.nodes]
    assert all(type(modem) is ReferenceModem for modem in modems)
    # The cell is only a meaningful check if interference decided outcomes.
    assert sum(counts[0] for counts in oracle_counts) > 0
    assert sum(counts[3] for counts in oracle_counts) > 100
    if dense:
        assert sum(modem.multi_interferer_decodes for modem in modems) > 0
    # Production decodes exactly the arrivals that can decode alone, over
    # the oracle's interferer sets in the oracle's order: bit for bit.
    alone = reference.channel.undecodable(np.array([level for level, _ in oracle_decodes]))
    assert decodes == [decode for decode, lost in zip(oracle_decodes, alone) if not lost]
    assert len(decodes) < len(oracle_decodes)  # the shortcut was taken
    assert counts == oracle_counts
    assert result == oracle
    if cell in TRACED:
        by_why = {}
        for record in production.sim.trace.select("phy.rx_fail"):
            by_why[record.detail["why"]] = by_why.get(record.detail["why"], 0) + 1
        totals = [sum(column) for column in zip(*counts)]
        assert len(production.sim.trace.select("phy.rx")) - sum(by_why.values()) == totals[0]
        assert by_why.get("half_duplex", 0) == totals[2]
        assert by_why["collision"] == totals[3]
        assert by_why["noise"] == totals[4]


#: Inside the 3 km interference reach, beyond the ~1.59 km decode range.
FAR_M = 2500.0


def _tie(flip, scheduled_first):
    """Run one undecodable arrival whose end coincides with a flag flip.

    The flip is scheduled either before the arrival began (so it sorts
    before the arrival's finish event) or from an event after the begin
    (so it sorts after).  Returns the receiver's modem after the run.
    """
    sim = Simulator()
    channel = AcousticChannel(sim, interference_range_factor=2.0)
    tx = Node(sim, 0, Position(0.0, 0.0, 100.0), channel)
    rx = Node(sim, 1, Position(FAR_M, 0.0, 100.0), channel)
    frame = control_frame(FrameType.RTS, 0, 1, timestamp=0.0)
    t0 = 1.0
    # The same IEEE sums the channel's fan-out makes.
    start = t0 + channel.propagation_delay_s(0, 1)
    end = start + frame.duration_s(channel.bitrate_bps)
    if flip == "crash":

        def arm():
            sim.schedule_at(end, rx.fail)

    elif flip == "recover":
        sim.schedule_at(start + 0.5 * (end - start), rx.fail)

        def arm():
            sim.schedule_at(end, rx.recover)

    else:
        injector = FaultInjector(
            sim,
            [tx, rx],
            channel,
            FaultPlan(outages=(ModemOutage(node_id=1, at_s=end, duration_s=1.0, direction="rx"),)),
        )
        arm = injector.arm
    if scheduled_first:
        arm()
    else:
        sim.schedule_at(start + 0.75 * (end - start), arm)
    sim.schedule_at(t0, tx.modem.transmit, frame)
    sim.run()
    return rx.modem


@pytest.mark.parametrize("modem_cls", [AcousticModem, ReferenceModem], ids=["production", "oracle"])
@pytest.mark.parametrize(
    "flip, scheduled_first, offline",
    [
        ("crash", True, True),
        ("crash", False, False),
        ("recover", True, False),
        ("recover", False, True),
        ("rx_outage", True, True),
        ("rx_outage", False, False),
    ],
)
def test_arrival_ending_at_a_flip_follows_finish_event_order(
    monkeypatch, modem_cls, flip, scheduled_first, offline
):
    monkeypatch.setattr(channel_module, "AcousticModem", modem_cls)
    modem = _tie(flip, scheduled_first)
    assert type(modem) is modem_cls
    if modem_cls is AcousticModem:
        assert modem.channel.kernel.row(0).delivery_callbacks == [modem.begin_interferer]
    stats = modem.stats
    assert (stats.rx_outage, stats.rx_noise) == ((1, 0) if offline else (0, 1))
