"""Each protocol's fixed MAC parameters (paper Sec. 5), pinned exactly."""

from __future__ import annotations

import pytest

from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario
from repro.mac.base import SlottedMac
from repro.mac.registry import get_protocol

FIELDS = (
    "max_retries",
    "cw_min",
    "cw_max",
    "rp_wait_weight",
    "guard_s",
    "hello_window_s",
    "maintenance_period_s",
    "piggyback_bits",
)
SHARED = (12, 1, 4, 0.25, 2.0e-3, 5.0)

#: protocol -> (maintenance_period_s, piggyback_bits); the rest is SHARED.
OWN = {
    "EW-MAC": (None, 64),
    "S-FAMA": (None, 0),
    "ROPA": (90.0, 64),
    "CS-MAC": (120.0, 128),
    "ALOHA": (None, 0),
}


@pytest.mark.parametrize("protocol", sorted(OWN))
def test_protocol_constants(protocol):
    cls = get_protocol(protocol)
    assert tuple(getattr(cls, name) for name in FIELDS) == SHARED + OWN[protocol]


def test_max_retries_override_is_per_run():
    scenario = Scenario(table2_config(n_sensors=6, sim_time_s=5.0, max_retries=100))
    assert all(mac.max_retries == 100 for mac in scenario.macs)
    assert SlottedMac.max_retries == 12
    assert get_protocol("EW-MAC").max_retries == 12
