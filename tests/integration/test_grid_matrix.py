"""Grid and bulk fan-out equivalence across the full MAC matrix.

Mirrors ``test_cache_equivalence.py``: the spatial-hash reach cull and the
batched ``push_bulk`` fan-out are pure mechanics — every figure metric
must come out *exactly* equal to the scalar full-scan
:class:`~tests.reference_channel.ReferenceChannel` (one ``push_at`` per
arrival), across all five MACs, with and without mobility, and under
chaos plans; at channel level, arrival by arrival.
"""

import json

import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.experiments.chaos import chaos_plan
from repro.experiments.config import table2_config
from repro.experiments.scale import QUICK_NODES, scale_config
from repro.experiments.scenario import run_scenario
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame
from tests.helpers import modem_of
from tests.reference_channel import ReferenceChannel

#: Production/reference result pairs by config: the grid and the bulk
#: classes check different counters on the same runs.
_RUNS: dict = {}


def _flat(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture
def run_pair(reference_run):
    def pair(config):
        if config not in _RUNS:
            _RUNS[config] = (run_scenario(config), reference_run(run_scenario, config))
        return _RUNS[config]

    return pair


class TestGridEquivalence:
    @pytest.mark.parametrize("protocol", ["EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "ALOHA"])
    def test_mobile_scenario_identical(self, run_pair, protocol):
        # Mobility exercises epoch bumps, cell re-binning and candidate
        # re-gathers on every update tick.
        config = table2_config(
            protocol=protocol,
            sim_time_s=40.0,
            offered_load_kbps=0.8,
            seed=11,
            mobility=True,
        )
        culled, full = run_pair(config)
        assert _flat(culled) == _flat(full)

    def test_static_scenario_identical(self, run_pair):
        config = table2_config(sim_time_s=40.0, seed=12, mobility=False)
        culled, full = run_pair(config)
        assert _flat(culled) == _flat(full)

    def test_tiled_deployment_identical(self, run_pair):
        # The scale sweep's shape: columns spread far beyond one cell
        # neighborhood, so the cull actually drops most of the row.
        config = table2_config(
            n_sensors=150,
            n_sinks=3,
            deployment="tiled",
            side_m=13_000.0,
            sim_time_s=20.0,
            seed=5,
            mobility=True,
        )
        culled, full = run_pair(config)
        assert _flat(culled) == _flat(full)
        n = config.n_sensors + config.n_sinks
        assert culled.perf.grid_candidates < culled.perf.broadcasts * (n - 1) / 2

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_interference_range_factor_identical(self, run_pair, factor):
        # The factor scales the reach mask *and* the grid cell side.
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=17,
            mobility=True,
            interference_range_factor=factor,
        )
        culled, full = run_pair(config)
        assert _flat(culled) == _flat(full)

    @pytest.mark.parametrize("mobility", [True, False])
    def test_chaos_plan_identical(self, run_pair, mobility):
        plan = chaos_plan(fraction=0.2, warmup_s=10.0, sim_time_s=30.0, n_sensors=60)
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=19,
            mobility=mobility,
            faults=plan,
        )
        culled, full = run_pair(config)
        assert _flat(culled) == _flat(full)


class TestBulkScheduleEquivalence:
    """Bulk fan-out vs one ``push_at`` per arrival: bit-identical.

    Same matrix coverage as the grid — all five MACs, mobility on/off,
    chaos plans — checking the fan-out counters on the same runs.
    """

    @pytest.mark.parametrize("protocol", ["EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "ALOHA"])
    def test_mobile_scenario_identical(self, run_pair, protocol):
        config = table2_config(
            protocol=protocol,
            sim_time_s=40.0,
            offered_load_kbps=0.8,
            seed=11,
            mobility=True,
        )
        bulk, scalar = run_pair(config)
        assert _flat(bulk) == _flat(scalar)
        assert bulk.perf.bulk_pushes > 0
        assert scalar.perf.bulk_pushes == 0

    def test_static_scenario_identical(self, run_pair):
        config = table2_config(sim_time_s=40.0, seed=12, mobility=False)
        bulk, scalar = run_pair(config)
        assert _flat(bulk) == _flat(scalar)

    @pytest.mark.parametrize("mobility", [True, False])
    def test_chaos_plan_identical(self, run_pair, mobility):
        plan = chaos_plan(fraction=0.2, warmup_s=10.0, sim_time_s=30.0, n_sensors=60)
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=19,
            mobility=mobility,
            faults=plan,
        )
        bulk, scalar = run_pair(config)
        assert _flat(bulk) == _flat(scalar)


class TestChannelLevelEquivalence:
    """Channel-level: every arrival's times, level and delay match the
    scalar scan, with a node outside the 3x3x3 neighbourhood, at a
    non-nominal sound speed, across a mobility update."""

    @pytest.mark.parametrize("mobile", [False, True])
    def test_broadcast_arrivals_identical(self, mobile):
        captured = {}
        for culled, channel_cls in ((True, AcousticChannel), (False, ReferenceChannel)):
            sim = Simulator()
            channel = channel_cls(
                sim, interference_range_factor=2.0, sound_speed_mps=1000.0
            )
            holder = [
                Position(0, 0, 0),
                Position(1200, 0, 0),
                Position(0, 1400, 100),
                Position(9200, 0, 0),  # outside the 3x3x3 neighborhood
            ]
            seen = []
            for node_id in range(len(holder)):
                modem = channel.create_modem(node_id, lambda i=node_id: holder[i])
                modem.on_receive = lambda f, arr, i=node_id: seen.append(
                    (i, arr.src, arr.start, arr.end, arr.level_db, arr.delay_s)
                )
            for t, tx in ((0.0, 0), (3.0, 1), (6.5, 2)):
                sim.schedule(
                    t,
                    modem_of(channel, tx).transmit,
                    control_frame(FrameType.RTS, tx, (tx + 1) % 4, timestamp=t),
                )
            if mobile:
                def move():
                    holder[1] = Position(1300, 50, 0)
                    channel.note_position_change(1)

                sim.schedule(5.0, move)
            sim.run()
            captured[culled] = (
                seen,
                channel.stats.deliveries,
                channel.stats.out_of_range_skips,
            )
            assert (channel.stats.bulk_pushes > 0) == culled
        assert captured[True][0]
        assert captured[True] == captured[False]


class TestScaleSmokeCell:
    """The smallest cell of ``repro-uasn scale --quick`` (tiled, 150 nodes,
    8 s, seed 1), the sweep the CI scale smoke runs."""

    def test_quick_scale_cell_identical(self, run_pair):
        config = scale_config(QUICK_NODES[0], sim_time_s=8.0, seed=1)
        culled, full = run_pair(config)
        assert _flat(culled) == _flat(full)
        assert culled.perf.bulk_pushes > 0
        assert full.perf.bulk_pushes == 0
