"""Fig. 11 benchmark: Eq. (4) efficiency index, S-FAMA normalized to 1.

Paper expectation: EW-MAC posts the best efficiency (throughput per unit
power); the baseline is 1 by construction.
"""

from conftest import check_figure, emit

from repro.experiments.engine import run_plans
from repro.experiments.figures import ALL_PLANS


def test_fig11_efficiency_index(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig11"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig11")
    for i in range(len(data.x_values)):
        assert data.series["S-FAMA"][i] == 1.0
    # EW-MAC's efficiency advantage (higher throughput at comparable power)
    top = len(data.x_values) - 1
    assert data.series["EW-MAC"][top] > 0.9
