"""Unit tests for the vectorized kernel's per-node epoch semantics.

Complements ``test_linkcache.py`` (which covers the channel's cached
queries): these tests pin the *granularity* of invalidation — moving one
node must dirty exactly that node's row and column, a static deployment
must compute each pair exactly once, and mid-run registration must match
the uncached reference channel.
"""

import numpy as np
import pytest

from repro.acoustic.geometry import Position
from repro.des.simulator import Simulator
from repro.phy.channel import AcousticChannel
from tests.helpers import modem_of
from tests.reference_channel import ReferenceChannel, fan_out


def build_channel(positions, channel_cls=AcousticChannel):
    sim = Simulator()
    channel = channel_cls(sim)
    holder = list(positions)
    for node_id in range(len(holder)):
        channel.create_modem(node_id, lambda i=node_id: holder[i])
    return sim, channel, holder


def warm_all_rows(channel):
    for node_id in channel._members:
        channel.kernel.row(node_id)


class TestPerNodeEpochs:
    def test_moving_one_node_dirties_exactly_its_row_and_column(self):
        positions = [
            Position(0, 0, 0),
            Position(1000, 0, 0),
            Position(0, 1000, 0),
            Position(700, 700, 0),
        ]
        _, channel, holder = build_channel(positions)
        warm_all_rows(channel)
        stats = channel.stats
        n = len(positions)
        assert stats.cache_misses == n * (n - 1)
        assert stats.vector_batches == n
        assert stats.rows_refreshed == 0

        holder[2] = Position(0, 1200, 0)
        channel.note_position_change(2)

        # Row 0: only the (0, 2) pair is stale -> one miss, n-2 hits.
        misses0, hits0 = stats.cache_misses, stats.cache_hits
        channel.kernel.row(0)
        assert stats.cache_misses == misses0 + 1
        assert stats.cache_hits == hits0 + (n - 2)
        assert stats.rows_refreshed == 1

        # Row 2 (the moved node): every pair is stale -> n-1 misses.
        misses2 = stats.cache_misses
        channel.kernel.row(2)
        assert stats.cache_misses == misses2 + (n - 1)
        assert stats.rows_refreshed == 2

        # Second query of row 0 with nothing moved: pure fast-path hits.
        hits_before = stats.cache_hits
        misses_before = stats.cache_misses
        channel.kernel.row(0)
        assert stats.cache_hits == hits_before + (n - 1)
        assert stats.cache_misses == misses_before
        assert stats.rows_refreshed == 2

    def test_refresh_leaves_unmoved_entries_bit_identical(self):
        positions = [
            Position(0, 0, 0),
            Position(900, 100, 50),
            Position(100, 1100, 0),
            Position(650, 720, 10),
        ]
        _, channel, holder = build_channel(positions)
        row = channel.kernel.row(0)
        before = {j: row.link_at(row.position(j)) for j in (1, 2, 3)}

        holder[2] = Position(100, 1300, 0)
        channel.note_position_change(2)
        row = channel.kernel.row(0)

        for j in (1, 3):  # pairs not touching the moved node: exact reuse
            assert row.link_at(row.position(j)) == before[j]
        moved = row.distance_m[row.position(2)]
        assert moved != before[2][0]
        assert moved == pytest.approx(Position(0, 0, 0).distance_to(holder[2]))

    def test_static_deployment_computes_each_pair_exactly_once(self):
        positions = [Position(0, 0, 0), Position(800, 0, 0), Position(0, 900, 100)]
        _, channel, _ = build_channel(positions)
        n = len(positions)
        for _ in range(4):  # repeated broadcasts from every node
            warm_all_rows(channel)
        stats = channel.stats
        assert stats.cache_misses == n * (n - 1)  # one compute per directed pair
        assert stats.vector_batches == n  # one build per row, no refreshes
        assert stats.rows_refreshed == 0
        assert stats.cache_hits == 3 * n * (n - 1)

    def test_global_invalidate_dirties_everything(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 500, 0)]
        _, channel, holder = build_channel(positions)
        warm_all_rows(channel)
        holder[0] = Position(10, 0, 0)
        holder[1] = Position(990, 0, 0)
        channel.note_position_change()  # out-of-band move: no node_id known
        misses = channel.stats.cache_misses
        n = len(positions)
        warm_all_rows(channel)
        assert channel.stats.cache_misses == misses + n * (n - 1)
        assert channel.distance_m(0, 1) == pytest.approx(980.0)


class TestMidRunRegistration:
    def test_new_modem_visible_on_next_broadcast(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0)]
        _, channel, holder = build_channel(positions)
        row = channel.kernel.row(0)
        assert row.n == 2

        holder.append(Position(0, 700, 0))
        channel.create_modem(2, lambda: holder[2])
        row = channel.kernel.row(0)
        assert row.n == 3
        assert channel.neighbors_of(0) == (1, 2)

    def test_registration_matches_uncached_channel(self):
        positions = [Position(0, 0, 0), Position(1200, 0, 0)]
        _, cached, cached_holder = build_channel(positions)
        _, uncached, uncached_holder = build_channel(positions, ReferenceChannel)
        warm_all_rows(cached)

        late = Position(300, 800, 40)
        for channel, holder in ((cached, cached_holder), (uncached, uncached_holder)):
            holder.append(late)
            channel.create_modem(2, lambda h=holder: h[2])

        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                assert cached.distance_m(a, b) == uncached.distance_m(a, b)
                assert cached.propagation_delay_s(a, b) == uncached.propagation_delay_s(a, b)
            assert cached.neighbors_of(a) == uncached.neighbors_of(a)


class TestKernelGrowth:
    def test_array_growth_past_initial_capacity(self):
        # The kernel starts with capacity 64; registering past it must
        # preserve coordinates and epochs across the array doubling.
        positions = [Position(float(i), 0, 0) for i in range(100)]
        _, channel, _ = build_channel(positions)
        kernel = channel.kernel
        assert kernel._n == 100
        assert channel.distance_m(0, 99) == pytest.approx(99.0)
        np.testing.assert_array_equal(kernel._epoch[:100], np.zeros(100))

    def test_self_pair_never_delivered(self):
        positions = [Position(0, 0, 0), Position(100, 0, 0)]
        _, channel, _ = build_channel(positions)
        row = channel.kernel.row(0)
        callbacks = channel.kernel.deliveries(row)
        assert [c.__self__.node_id for c in callbacks] == [1]
        assert not row.in_reach[row.position(0)]
        assert not row.in_decode[row.position(0)]


def reference_for(channel):
    """A scalar full-scan oracle reading ``channel``'s live positions."""
    reference = ReferenceChannel(
        Simulator(), interference_range_factor=channel.interference_range_factor
    )
    for node_id in channel._members:
        reference.create_modem(node_id, lambda i=node_id: channel.position_of(i))
    return reference


def row_arrays(row):
    return (
        row.candidates,
        row.stamp,
        row.distance_m,
        row.delay_s,
        row.level_db,
        row.in_reach,
        row.in_decode,
    )


class TestCandidateLayout:
    """Rows hold one entry per candidate (the 3x3x3 cell neighbourhood)."""

    def test_departure_and_reentry_keep_retained_entries(self):
        positions = [
            Position(0, 0, 0),
            Position(1000, 0, 0),
            Position(0, 1000, 0),
            Position(700, 700, 0),
        ]
        _, channel, holder = build_channel(positions)
        kernel = channel.kernel
        stats = channel.stats
        reference = reference_for(channel)
        row = kernel.row(0)
        assert row.candidates.tolist() == [0, 1, 2, 3]
        assert stats.cache_misses == 3

        def retained():
            return {
                j: (row.link_at(row.position(j)), int(row.stamp[row.position(j)]))
                for j in (1, 3)
            }

        before = retained()

        # Node 2 leaves the neighbourhood: its entry drops out, nothing is
        # recomputed and the retained entries move over untouched.
        holder[2] = Position(20_000.0, 0, 0)
        channel.note_position_change(2)
        misses, hits = stats.cache_misses, stats.cache_hits
        row = kernel.row(0)
        assert row.candidates.tolist() == [0, 1, 3]
        assert row.position(2) == -1
        assert all(len(a) == 3 for a in row_arrays(row))
        assert stats.cache_misses == misses
        assert stats.cache_hits == hits + 3
        assert retained() == before
        assert kernel.stored_entries == 3
        assert fan_out(channel, 0) == fan_out(reference, 0)

        # It comes back: exactly its own entry is computed, from the
        # never-computed mark, and the retained ones still are not.
        holder[2] = Position(0, 1200.0, 0)
        channel.note_position_change(2)
        misses, hits = stats.cache_misses, stats.cache_hits
        row = kernel.row(0)
        assert row.candidates.tolist() == [0, 1, 2, 3]
        assert stats.cache_misses == misses + 1
        assert stats.cache_hits == hits + 2
        assert retained() == before
        pos = row.position(2)
        assert int(row.stamp[pos]) == kernel._epoch[0] + kernel._epoch[2] == 2
        assert row.link_at(pos) == reference.link(0, 2)
        assert kernel.stored_entries == 4
        assert fan_out(channel, 0) == fan_out(reference, 0)
        assert channel.neighbors_of(0) == reference.neighbors_of(0) == (1, 2, 3)

    def test_non_candidate_point_query_stores_nothing(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(40_000.0, 0, 0)]
        _, channel, _ = build_channel(positions)
        kernel = channel.kernel
        reference = reference_for(channel)
        row = kernel.row(0)
        built = kernel.deliveries(row)
        assert row.position(2) == -1
        before = [a.copy() for a in row_arrays(row)]
        stored = kernel.stored_entries
        for _ in range(2):
            batches = channel.stats.vector_batches
            misses = channel.stats.cache_misses
            assert kernel.ensure_pair(kernel.row(0), 2) == reference.link(0, 2)
            # One single-element pass per query: nothing is cached for it.
            assert channel.stats.vector_batches == batches + 1
            assert channel.stats.cache_misses == misses + 1
        assert channel.distance_m(0, 2) == reference.distance_m(0, 2)
        assert channel.propagation_delay_s(0, 2) == reference.propagation_delay_s(0, 2)
        assert kernel.row(0) is row
        for old, new in zip(before, row_arrays(row)):
            np.testing.assert_array_equal(old, new)
        assert kernel.stored_entries == stored
        assert row.delivery_callbacks is built  # the fan-out survives the queries
        assert fan_out(channel, 0) == fan_out(reference, 0)

    def test_tiled_1000_node_rows_are_candidate_sized(self):
        from repro.experiments.scale import scale_side_m
        from repro.topology.deployment import DeploymentConfig, tiled_column_deployment

        side = scale_side_m(1000)
        deployment = tiled_column_deployment(
            DeploymentConfig(
                n_sensors=1000, n_sinks=17, side_x_m=side, side_y_m=side, depth_m=side,
                seed=1,
            )
        )
        _, channel, _ = build_channel(deployment.positions)
        kernel = channel.kernel
        n = len(deployment.positions)
        warm_all_rows(channel)
        rows = list(kernel._rows.values())
        assert len(rows) == n
        for row in rows:
            k = len(row.candidates)
            assert row.candidates[row.self_pos] == row.idx
            assert all(len(a) == k for a in row_arrays(row))
        total = sum(len(row.candidates) for row in rows)
        assert kernel.stored_entries == total
        # Link state is O(n·k): far below one n-entry row per transmitter.
        assert total < n * n / 4
        assert kernel.link_state_bytes() == 42 * total
        # Built fan-outs add 24 bytes per in-reach entry and are counted.
        for node_id in channel._members:
            kernel.deliveries(kernel.row(node_id))
        products = sum(row.product_bytes() for row in rows)
        in_reach = sum(int(row.in_reach.sum()) for row in rows)
        assert products == 24 * in_reach <= 24 * total
        assert kernel.link_state_bytes() == 42 * total + products


def wide_channel(positions):
    """A channel delivering to twice the decode range, so a fan-out holds
    both decodable arrivals and interferers."""
    return build_channel(
        positions, lambda sim: AcousticChannel(sim, interference_range_factor=2.0)
    )


class TestFanOutProducts:
    """A row's fan-out is float64 delays and levels plus references to
    callbacks bound once per member, cached until the masks change."""

    def test_rows_share_each_receivers_callbacks(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(2000, 0, 0)]
        _, channel, _ = wide_channel(positions)
        kernel = channel.kernel
        from_0 = kernel.deliveries(kernel.row(0))
        from_2 = kernel.deliveries(kernel.row(2))
        middle = modem_of(channel, 1)
        # Node 1 decodes from both ends: both rows hold the one bound method.
        assert from_0[0] is from_2[1] is kernel._receivers[1][0]
        assert from_0[0] == middle.begin_arrival
        # 2 km is past the decode range: each end is the other's interferer.
        assert from_0[1] is kernel._receivers[2][1]
        assert from_0[1] == modem_of(channel, 2).begin_interferer
        assert from_2[0] == modem_of(channel, 0).begin_interferer

    def test_products_are_aligned_and_match_reference(self):
        rng = np.random.default_rng(3)
        positions = [Position(*map(float, p)) for p in rng.uniform(0, 5000, (40, 3))]
        _, channel, _ = wide_channel(positions)
        reference = reference_for(channel)
        kernel = channel.kernel
        sinr_alone = channel.link_budget.sinr_db_from_levels
        kinds = set()
        for tx in range(len(positions)):
            row = kernel.row(tx)
            callbacks = kernel.deliveries(row)
            assert row.delivery_delays.dtype == row.delivery_levels.dtype == np.float64
            assert fan_out(channel, tx) == fan_out(reference, tx)
            for callback, level in zip(callbacks, row.delivery_levels.tolist()):
                lost = sinr_alone(level, ()) < channel.decode_threshold_db
                modem = callback.__self__
                assert callback == (modem.begin_interferer if lost else modem.begin_arrival)
                kinds.add(lost)
        assert kinds == {False, True}

    def test_move_drops_and_rebuilds_products(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 900, 0)]
        _, channel, holder = build_channel(positions)
        kernel = channel.kernel
        reference = reference_for(channel)
        row = kernel.row(0)
        built = kernel.deliveries(row)
        delays = row.delivery_delays
        holder[1] = Position(1200, 0, 0)
        channel.note_position_change(1)
        assert kernel.row(0) is row
        assert row.delivery_callbacks is None
        assert row.delivery_delays is None and row.delivery_levels is None
        rebuilt = kernel.deliveries(row)
        assert rebuilt is not built and rebuilt == built
        assert row.delivery_delays[0] != delays[0]
        assert fan_out(channel, 0) == fan_out(reference, 0)

    def test_queries_keep_built_products(self):
        positions = [Position(0, 0, 0), Position(1000, 0, 0), Position(0, 900, 0)]
        _, channel, holder = build_channel(positions)
        kernel = channel.kernel
        # A refresh after the transmitter moves leaves its own (self) entry
        # stale, so the self query below really recomputes.
        kernel.row(0)
        holder[0] = Position(10, 0, 0)
        channel.note_position_change(0)
        row = kernel.row(0)
        built = kernel.deliveries(row)
        products = (row.delivery_delays, row.delivery_levels)
        batches = channel.stats.vector_batches
        assert channel.distance_m(0, 0) == 0.0
        assert channel.stats.vector_batches == batches + 1
        assert channel.distance_m(0, 1) == 990.0
        assert channel.propagation_delay_s(0, 2) == reference_for(channel).propagation_delay_s(0, 2)
        assert channel.neighbors_of(0) == (1, 2)
        assert kernel.row(0) is row
        assert kernel.deliveries(row) is built
        assert (row.delivery_delays, row.delivery_levels) == products


class TestRowBudget:
    """The LRU cap counts stored entries, summed over the cached rows."""

    def test_lru_evicts_and_rebuilds_bit_identically(self, monkeypatch):
        from repro.phy import vectorized

        monkeypatch.setattr(vectorized, "DEFAULT_ROW_BUDGET_ENTRIES", 40)
        # 700 m spacing on a line: each row holds the ~7 members of its
        # three 1500 m cells, so the budget keeps only a few rows.
        positions = [Position(700.0 * i, 0, 0) for i in range(30)]
        _, channel, holder = build_channel(positions)
        kernel = channel.kernel
        stats = channel.stats
        reference = reference_for(channel)

        def sweep():
            for tx in range(len(holder)):
                assert fan_out(channel, tx) == fan_out(reference, tx)
                rows = kernel._rows.values()
                assert kernel.stored_entries == sum(len(r.candidates) for r in rows)
                assert kernel.stored_entries <= 40
            assert 1 < len(kernel._rows) < len(holder)

        sweep()
        assert 0 not in kernel._rows  # evicted least-recently-used
        misses, batches = stats.cache_misses, stats.vector_batches
        row = kernel.row(0)  # rebuilt from scratch: one pass, every pair a miss
        assert stats.cache_misses == misses + row.candidate_count
        assert stats.vector_batches == batches + 1
        assert fan_out(channel, 0) == fan_out(reference, 0)

        # Moves that regather candidate sets keep the cap and the fan-out.
        for i in range(0, len(holder), 3):
            holder[i] = Position(holder[i].x + 900.0, 50.0, 0)
            channel.note_position_change(i)
        sweep()
