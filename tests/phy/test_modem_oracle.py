"""The production receive path against the unpruned reference modem.

Production prunes its arrival and transmission lists to one on-air
duration and draws PER uniforms from the channel's block buffer; the
oracle (:class:`~tests.reference_modem.ReferenceModem`) keeps everything
and draws one scalar uniform per decode.  On collision-heavy cells, where
interference decides most outcomes and SINR sums run over several
interferers, both must produce the same per-modem outcome counts and the
same scenario result.
"""

from __future__ import annotations

import pytest

import repro.phy.channel as channel_module
from repro.acoustic.per import RayleighBerPerModel
from repro.acoustic.sinr import LinkBudget
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from tests.reference_modem import ReferenceModem

#: ``(config overrides, PER model)``.  The default threshold model ignores
#: the uniform draw (its PER is 0 or 1), so one cell runs the Rayleigh model,
#: whose PER lies strictly between, to make every draw decide an outcome.
CELLS = {
    # The densest paper cell: CS-MAC, 200 nodes, 1.0 kbps.
    "csmac-200": (dict(protocol="CS-MAC", n_sensors=200, offered_load_kbps=1.0, seed=3), None),
    # Mobile ALOHA at high load: many overlapping arrivals, random decodes.
    "aloha-mobile-rayleigh": (
        dict(protocol="ALOHA", offered_load_kbps=1.5, mobility=True, seed=29),
        RayleighBerPerModel,
    ),
}

OUTCOMES = ("rx_ok", "rx_ok_bits", "rx_half_duplex", "rx_collision", "rx_noise", "rx_outage")


def _run(config, patch):
    """Run ``config``, recording every SINR the decodes compute, in order."""
    sinrs = []
    original = LinkBudget.sinr_db_from_levels

    def recording(self, *args, **kwargs):
        sinrs.append(original(self, *args, **kwargs))
        return sinrs[-1]

    patch.setattr(LinkBudget, "sinr_db_from_levels", recording)
    scenario = Scenario(config)
    result = scenario.run_steady_state()
    counts = [
        tuple(getattr(node.modem.stats, name) for name in OUTCOMES) for node in scenario.nodes
    ]
    return scenario, result.to_dict(), counts, sinrs


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_production_matches_unpruned_reference(monkeypatch, cell):
    overrides, per_model = CELLS[cell]
    config = table2_config(sim_time_s=30.0, **overrides)
    if per_model is not None:
        monkeypatch.setattr(channel_module, "DefaultPerModel", lambda threshold_db: per_model())
    with monkeypatch.context() as patch:
        _, production, production_counts, production_sinrs = _run(config, patch)
    with monkeypatch.context() as patch:
        patch.setattr(channel_module, "AcousticModem", ReferenceModem)
        reference, oracle, oracle_counts, oracle_sinrs = _run(config, patch)
    modems = [node.modem for node in reference.nodes]
    assert all(type(modem) is ReferenceModem for modem in modems)
    if per_model is not None:
        assert type(reference.channel.per_model) is per_model
    # The cell is only a meaningful check if interference decided outcomes
    # and some SINR sums ran over several interferers.
    assert sum(counts[0] for counts in oracle_counts) > 0
    assert sum(counts[3] for counts in oracle_counts) > 100
    assert sum(modem.multi_interferer_decodes for modem in modems) > 0
    # Same interferer sets summed in the same order: every SINR, bit for bit.
    assert production_sinrs == oracle_sinrs
    assert production_counts == oracle_counts
    assert production == oracle
