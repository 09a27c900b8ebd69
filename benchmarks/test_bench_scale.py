"""Scale benchmark: one quick 300-node mobile cell of the scale sweep.

Times the same tiled, constant-density deployment the ``repro-uasn scale``
sweep runs at its quick upper node count — the configuration whose wall
time the spatial grid and the batched arrival scheduling are supposed to
protect.  The run is also a liveness check on both: a mobile 300-node cell
must actually cull each broadcast to a small candidate set and schedule
its arrivals through the bulk push, not just tolerate them.  And its link
rows must hold one entry per candidate, not one per member, with fan-out
products of at most 24 bytes per entry.
"""

from repro.experiments.scale import QUICK_NODES, scale_config
from repro.experiments.scenario import Scenario


def test_scale_quick_mobile_cell(one_shot):
    n = QUICK_NODES[-1]  # 300 nodes: the largest quick-sweep cell
    config = scale_config(n, sim_time_s=8.0, seed=1)
    built = []

    def run_cell():
        scenario = Scenario(config)
        built.append(scenario)
        return scenario.run_steady_state()

    result = one_shot(run_cell)
    perf = result.perf
    assert perf is not None
    assert perf.events > 0
    members = config.n_sensors + config.n_sinks
    mean_candidates = perf.mean_grid_candidates
    kernel = built[0].channel.kernel
    rows = kernel._rows.values()
    print(
        f"\nscale n={n}: {perf.events:,} events, "
        f"{perf.events_per_second:,.0f} ev/s, "
        f"cache hit {perf.cache_hit_rate:.1%}, "
        f"{mean_candidates:,.1f} grid candidates/broadcast of {members - 1}, "
        f"{perf.bulk_pushes:,} bulk pushes ({perf.bulk_events:,} events)"
    )
    products = sum(row.product_bytes() for row in rows)
    print(
        f"link state: {kernel.stored_entries:,} pair entries in {len(rows):,} rows, "
        f"{kernel.link_state_bytes() / 1e6:.2f} MB "
        f"({products / 1e6:.2f} MB of fan-out products)"
    )
    # The mobile cell must drive both mechanisms, not merely allow them.
    assert mean_candidates < (members - 1) / 2
    assert perf.bulk_pushes > 0
    assert perf.bulk_events >= perf.bulk_pushes
    # Rows are sized to their candidates: the stored entries are exactly
    # the candidate sets, so, like the candidate sets above, under half of
    # what a full row per transmitter would hold.
    assert kernel.stored_entries == sum(len(row.candidates) for row in rows)
    assert 0 < kernel.stored_entries < members * members / 2
    # The fan-out products hold at most a delay, a level and a callback
    # reference per stored entry, so the row budget bounds them too.
    assert 0 < products <= 24 * kernel.stored_entries
