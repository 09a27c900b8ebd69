"""Link-state cache equivalence: cached runs match the uncached reference.

The kernel's link-state cache is a pure memoization layer, so every figure
metric must come out *exactly* equal — not approximately — to a run on the
scalar :class:`~tests.reference_channel.ReferenceChannel`, which caches
nothing.  Runs with mobility enabled exercise epoch invalidation on every
position-update tick; the static run exercises the
compute-each-pair-exactly-once path.
"""

import json

import pytest

import repro.experiments.scenario as scenario_module
from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.experiments.chaos import chaos_plan
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario, run_scenario
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame
from tests.helpers import modem_of
from tests.reference_channel import ReferenceChannel


def _flat(result):
    """Canonical JSON of every figure metric (raises on non-serialisable)."""
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture
def run_pair(reference_run):
    def pair(config):
        return run_scenario(config), reference_run(run_scenario, config)

    return pair


class TestSteadyStateEquivalence:
    @pytest.mark.parametrize("protocol", ["EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "ALOHA"])
    def test_mobile_scenario_identical(self, run_pair, protocol):
        # Mobility forces an epoch bump every update period; identical
        # results prove invalidation never serves stale geometry.
        config = table2_config(
            protocol=protocol,
            sim_time_s=40.0,
            offered_load_kbps=0.8,
            seed=11,
            mobility=True,
        )
        cached, uncached = run_pair(config)
        assert _flat(cached) == _flat(uncached)

    def test_static_scenario_identical(self, run_pair):
        config = table2_config(sim_time_s=40.0, seed=12, mobility=False)
        cached, uncached = run_pair(config)
        assert _flat(cached) == _flat(uncached)
        # Static deployments compute each queried pair exactly once.
        perf = cached.perf
        assert perf.cache_hits > 0
        n = config.n_sensors + 1
        assert perf.cache_misses <= n * (n - 1)

    def test_mobility_run_actually_invalidates(self):
        config = table2_config(sim_time_s=40.0, seed=13, mobility=True)
        mobile = run_scenario(config)
        static = run_scenario(config.with_(mobility=False))
        n = config.n_sensors + 1
        # With epoch bumps every mobility tick the cache recomputes pairs;
        # without them it cannot exceed the one-shot pair budget.
        assert mobile.perf.cache_misses > n * (n - 1)
        assert static.perf.cache_misses <= n * (n - 1)


class TestVariantEquivalence:
    """Knobs that reshape the geometry pipeline must not break identity."""

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_interference_range_factor_identical(self, run_pair, factor):
        # The factor scales the delivery-reach mask inside the vector
        # kernel; both extremes must agree with the scalar scan.
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=17,
            mobility=True,
            interference_range_factor=factor,
        )
        cached, uncached = run_pair(config)
        assert _flat(cached) == _flat(uncached)

    @pytest.mark.parametrize("speed", [1000.0, 1700.0])
    def test_sound_speed_identical(self, run_pair, monkeypatch, speed):
        # The kernel divides every cached distance by the channel's speed;
        # the scalar scan divides each pair's fresh distance by it.  The
        # speed is a constant of the scenario, swapped here for another.
        monkeypatch.setattr(scenario_module, "DEFAULT_SOUND_SPEED_MPS", speed)
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=13,
            mobility=True,
        )
        cached, uncached = run_pair(config)
        assert _flat(cached) == _flat(uncached)

    @pytest.mark.parametrize("mobility", [True, False])
    def test_chaos_plan_identical(self, run_pair, mobility):
        # Fault injection moves nothing but flips modem liveness, jumps
        # clocks and raises the noise floor mid-run — none of which is
        # cached state, so identity must survive a full chaos plan.
        plan = chaos_plan(fraction=0.2, warmup_s=10.0, sim_time_s=30.0, n_sensors=60)
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=19,
            mobility=mobility,
            faults=plan,
        )
        cached, uncached = run_pair(config)
        assert _flat(cached) == _flat(uncached)


class TestChannelLevelEquivalence:
    """Channel-level: cached link rows stay exact across repeated moves.

    The same links are used before and after each move, so a row that
    survived an invalidation it should not have would hand out a stale
    delay or level.  Both invalidation forms are covered: one node's epoch
    and every epoch at once.
    """

    @pytest.mark.parametrize("moved", [1, None], ids=["one-node", "all-nodes"])
    def test_arrivals_identical_across_moves(self, moved):
        captured = {}
        for use_cache, channel_cls in ((True, AcousticChannel), (False, ReferenceChannel)):
            sim = Simulator()
            channel = channel_cls(
                sim, interference_range_factor=2.0, sound_speed_mps=1450.0
            )
            holder = [
                Position(0, 0, 0),
                Position(1200, 0, 0),
                Position(0, 1400, 100),
                Position(2200, 0, 0),
            ]
            seen = []
            for node_id in range(len(holder)):
                modem = channel.create_modem(node_id, lambda i=node_id: holder[i])
                modem.on_receive = lambda f, arr, i=node_id: seen.append(
                    (i, arr.src, arr.start, arr.end, arr.level_db, arr.delay_s)
                )

            def move(position):
                holder[1] = position
                channel.note_position_change(moved)

            for step, position in enumerate(
                (Position(1300, 50, 0), Position(2900, 0, 0), Position(400, 300, 20))
            ):
                t = 10.0 * step
                for tx in (0, 1, 2):
                    sim.schedule(
                        t + 3.0 * tx,
                        modem_of(channel, tx).transmit,
                        control_frame(FrameType.RTS, tx, (tx + 1) % 4, timestamp=t),
                    )
                sim.schedule(t + 9.0, move, position)
            sim.run()
            captured[use_cache] = (
                seen,
                channel.stats.deliveries,
                channel.stats.out_of_range_skips,
            )
        assert captured[True][0]
        assert captured[True] == captured[False]


class TestBatchEquivalence:
    def test_batch_drain_identical(self, reference_run):
        config = table2_config(
            sim_time_s=40.0, seed=7, offered_load_kbps=0.4, max_retries=100
        )
        cached = Scenario(config).run_batch(n_packets=6, max_time_s=1200.0)
        uncached = reference_run(
            lambda: Scenario(config).run_batch(n_packets=6, max_time_s=1200.0)
        )
        assert _flat(cached) == _flat(uncached)
