"""Vectorized interferer scan behavior.

``_decode_outcome`` switches from a Python comprehension to a NumPy
overlap-window scan once the live-arrival list reaches ``VECTOR_SCAN_MIN``.
Both paths must pick exactly the same interferer levels — the scan is an
implementation detail, not a model change.
"""

import json

import pytest

from repro.experiments.config import table2_config
from repro.experiments.scenario import run_scenario
from repro.phy import modem as modem_mod


def _flat(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _config(seed):
    # High load in a dense column so arrival lists routinely exceed the
    # vector-scan threshold and interference actually decides outcomes.
    return table2_config(
        protocol="ALOHA",
        sim_time_s=40.0,
        offered_load_kbps=1.5,
        seed=seed,
        mobility=True,
    )


class TestVectorScanEquivalence:
    @pytest.mark.parametrize("seed", [3, 29])
    def test_scan_paths_identical(self, monkeypatch, seed):
        vectorized = run_scenario(_config(seed))
        # Force the list-comprehension path for every decode.
        monkeypatch.setattr(modem_mod, "VECTOR_SCAN_MIN", 10**9)
        scalar = run_scenario(_config(seed))
        assert _flat(vectorized) == _flat(scalar)

    def test_scan_arrays_grow_past_initial_capacity(self):
        result = run_scenario(_config(seed=3))
        # The run is only a meaningful scan test if lists actually crossed
        # the threshold; collisions prove overlapping arrivals existed.
        assert result.collisions > 0
