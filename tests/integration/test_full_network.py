"""Full-network integration tests: every layer wired together."""

import pytest

from repro.experiments import Scenario, table2_config
from tests.helpers import pending_events, unforwarded_scenario


def small(protocol, **kw):
    defaults = dict(
        protocol=protocol, n_sensors=20, sim_time_s=60.0, offered_load_kbps=0.8, seed=5
    )
    defaults.update(kw)
    return table2_config(**defaults)


@pytest.mark.parametrize("protocol", ["S-FAMA", "ROPA", "CS-MAC", "EW-MAC"])
class TestProtocolInvariants:
    def test_conservation_of_packets(self, protocol):
        """acked + dropped + still-queued + in-flight == generated."""
        scenario = unforwarded_scenario(small(protocol))
        scenario.run_steady_state()
        generated = sum(n.app_stats.generated for n in scenario.nodes)
        acked = sum(n.app_stats.sent for n in scenario.nodes)
        dropped = sum(m.stats.drops for m in scenario.macs)
        queue_rejects = sum(n.app_stats.queue_drops for n in scenario.nodes)
        queued = sum(len(n.queue) for n in scenario.nodes)
        # in-flight: at most one per node (the head request being served)
        in_flight_slack = len(scenario.nodes)
        accounted = acked + dropped + queued + queue_rejects
        assert generated - in_flight_slack <= accounted <= generated

    def test_received_bits_never_exceed_sent_bits(self, protocol):
        scenario = Scenario(small(protocol))
        scenario.run_steady_state()
        sent = sum(
            m.stats.data_sent_bits + m.stats.opportunistic_data_bits
            for m in scenario.macs
        )
        received = sum(m.stats.total_data_bits_received for m in scenario.macs)
        assert received <= sent

    def test_acked_packets_were_received(self, protocol):
        """A sender's acked count never exceeds receivers' receptions."""
        scenario = unforwarded_scenario(small(protocol))
        scenario.run_steady_state()
        acked = sum(n.app_stats.sent for n in scenario.nodes)
        received = sum(
            m.stats.data_received + m.stats.opportunistic_received
            for m in scenario.macs
        )
        assert acked <= received + sum(m.stats.duplicate_data for m in scenario.macs)

    def test_energy_positive_and_bounded(self, protocol):
        scenario = Scenario(small(protocol))
        result = scenario.run_steady_state()
        assert result.energy.total_j > 0
        # upper bound: every node at full tx power the whole time
        n = len(scenario.nodes)
        upper = 2.0 * n * scenario.config.sim_time_s * 1.1
        assert result.energy.total_j < upper

    def test_no_pending_event_explosion(self, protocol):
        scenario = Scenario(small(protocol))
        scenario.run_steady_state()
        # the event queue must not accumulate unbounded garbage
        assert pending_events(scenario.sim) < 5000


class TestCrossProtocolComparisons:
    """Paired comparisons on identical topology + traffic (same seed)."""

    def _results(self, load, seeds=(3, 4, 5), **kw):
        out = {}
        for protocol in ("S-FAMA", "ROPA", "CS-MAC", "EW-MAC"):
            vals = []
            for seed in seeds:
                scenario = Scenario(
                    small(protocol, n_sensors=30, sim_time_s=120.0,
                          offered_load_kbps=load, seed=seed, **kw)
                )
                vals.append(scenario.run_steady_state())
            out[protocol] = vals
        return out

    @pytest.mark.slow
    def test_ewmac_extras_fire_under_load(self):
        results = self._results(0.8)
        extras = sum(r.extra_completed for r in results["EW-MAC"])
        assert extras > 0, "EW-MAC never completed an extra communication"

    @pytest.mark.slow
    def test_overhead_ordering_matches_paper(self):
        """Fig. 10: CS-MAC > EW-MAC > ROPA > S-FAMA in overhead."""
        results = self._results(0.5)
        mean = lambda p: sum(r.overhead_units for r in results[p]) / len(results[p])
        assert mean("S-FAMA") < mean("ROPA")
        assert mean("ROPA") < mean("EW-MAC")
        assert mean("EW-MAC") < mean("CS-MAC")

    @pytest.mark.slow
    def test_sfama_has_zero_opportunistic_traffic(self):
        results = self._results(0.8, seeds=(3,))
        for r in results["S-FAMA"]:
            pass
        scenario = Scenario(small("S-FAMA"))
        scenario.run_steady_state()
        assert all(m.stats.opportunistic_data_bits == 0 for m in scenario.macs)


class TestMobilityIntegration:
    def test_neighbor_delays_track_moving_nodes(self):
        """With mobility on, learned delays stay close to ground truth."""
        scenario = Scenario(small("EW-MAC", sim_time_s=120.0, offered_load_kbps=0.6))
        scenario.run_steady_state()
        checked = 0
        node_ids = {node.node_id for node in scenario.nodes}
        for mac in scenario.macs:
            node = mac.node
            for neighbor in node.neighbors.neighbors():
                if neighbor not in node_ids:
                    continue
                truth = scenario.channel.propagation_delay_s(node.node_id, neighbor)
                learned = node.neighbors.delay_to(neighbor)
                # tethered drift keeps relations stable (paper Sec. 5 note);
                # tolerate the tether radius worth of drift (300 m ~ 0.2 s)
                if truth <= 1.0:
                    assert abs(learned - truth) < 0.45
                    checked += 1
        assert checked > 10

    def test_static_network_learns_exact_delays(self):
        scenario = Scenario(small("S-FAMA", mobility=False, sim_time_s=60.0))
        scenario.run_steady_state()
        for mac in scenario.macs:
            node = mac.node
            for neighbor in node.neighbors.neighbors():
                truth = scenario.channel.propagation_delay_s(node.node_id, neighbor)
                if truth <= 1.0:  # decodable range
                    assert node.neighbors.delay_to(neighbor) == pytest.approx(
                        truth, abs=1e-6
                    )
