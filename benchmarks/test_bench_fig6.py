"""Fig. 6 benchmark: throughput vs offered load, four protocols.

Paper expectation: throughput rises with offered load and saturates;
waiting-resource protocols (ROPA / CS-MAC / EW-MAC) sit at or above the
S-FAMA baseline once the network is loaded.
"""

from conftest import check_figure, emit

from repro.experiments.engine import run_plans
from repro.experiments.figures import ALL_PLANS


def test_fig6_throughput_vs_offered_load(one_shot, sweep_workers):
    data = one_shot(run_plans, [ALL_PLANS["fig6"](quick=True)], workers=sweep_workers)[0].figure
    emit(data)
    check_figure(data, "fig6")
    # throughput does not shrink from the lightest to the heaviest load
    # (quick mode runs one seed; a saturated protocol may plateau exactly)
    for protocol, series in data.series.items():
        assert series[-1] >= series[0] * 0.95, f"{protocol} shrank with load"
    # at the highest load the idle-exploiting protocols are not below the
    # conservative baseline (paper Fig. 6 ordering, loose quick-mode form)
    top = len(data.x_values) - 1
    assert data.series["EW-MAC"][top] >= data.series["S-FAMA"][top] * 0.9
