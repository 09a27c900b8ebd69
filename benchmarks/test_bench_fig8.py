"""Fig. 8 benchmark: execution time (batch drain) vs offered load.

Paper expectation: drain time grows with the batch size; protocols that
exploit waiting resources drain faster than S-FAMA, with differences
insignificant below ~20 packets per 300 s.
"""

from conftest import check_figure, emit

from repro.experiments.engine import run_plans
from repro.experiments.figures import ALL_PLANS


def test_fig8_execution_time_vs_load(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig8"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig8")
    for protocol, series in data.series.items():
        # larger batches take longer to drain
        assert series[-1] > series[0], f"{protocol} drain time did not grow"
        assert all(v > 0 for v in series)
