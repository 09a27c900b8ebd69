"""Fig. 9 benchmarks: power consumption vs load (a) and node count (b).

Paper expectation: EW-MAC draws the least power (no two-hop upkeep, fast
transfers); ROPA and CS-MAC pay for maintaining and transmitting two-hop
neighbour information, increasingly so as the network densifies.
"""

from conftest import check_figure, emit

from repro.experiments.engine import run_plans
from repro.experiments.figures import ALL_PLANS


def test_fig9a_power_vs_load(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig9a"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig9a")
    for protocol, series in data.series.items():
        assert all(v > 0 for v in series)
    # the two-hop protocols pay a visible power premium over EW-MAC
    top = len(data.x_values) - 1
    assert data.series["ROPA"][top] > data.series["EW-MAC"][top]
    assert data.series["CS-MAC"][top] > data.series["EW-MAC"][top]


def test_fig9b_power_vs_node_count(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig9b"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig9b")
    # power grows with node count for every protocol...
    for protocol, series in data.series.items():
        assert series[-1] > series[0], protocol
    # ...but the two-hop protocols grow faster than EW-MAC (paper Fig. 9b)
    ew_growth = data.series["EW-MAC"][-1] - data.series["EW-MAC"][0]
    ropa_growth = data.series["ROPA"][-1] - data.series["ROPA"][0]
    cs_growth = data.series["CS-MAC"][-1] - data.series["CS-MAC"][0]
    assert ropa_growth > ew_growth
    assert cs_growth > ew_growth
