"""Fig. 10 benchmarks: overhead ratio vs node count (a) and load (b).

Paper expectation (S-FAMA = 1): ROPA ~1.5x; CS-MAC and EW-MAC 2-3x with
CS-MAC above EW-MAC (its control packets carry *two-hop* digests), and
EW-MAC's overhead growing flattest with node count.
"""

from conftest import check_figure, emit

from repro.experiments.engine import run_plans
from repro.experiments.figures import ALL_PLANS


def _check_ordering(data):
    for i in range(len(data.x_values)):
        assert data.series["S-FAMA"][i] == 1.0
        assert data.series["ROPA"][i] > 1.0
        assert data.series["EW-MAC"][i] > 1.0
        assert data.series["CS-MAC"][i] > data.series["EW-MAC"][i]


def test_fig10a_overhead_vs_node_count(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig10a"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig10a")
    _check_ordering(data)


def test_fig10b_overhead_vs_load(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig10b"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig10b")
    _check_ordering(data)
