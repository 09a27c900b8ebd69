"""Fig. 7 benchmark: throughput vs sensor density at 0.8 kbps.

Paper expectation: denser deployments shorten links, shrinking the
exploitable waiting time — the opportunistic protocols decline toward the
(density-invariant) S-FAMA line.
"""

from conftest import check_figure, emit

from repro.experiments.engine import run_plans
from repro.experiments.figures import ALL_PLANS


def test_fig7_throughput_vs_density(one_shot):
    data = one_shot(run_plans, [ALL_PLANS["fig7"](quick=True)])[0].figure
    emit(data)
    check_figure(data, "fig7")
    # every series stays within the paper's qualitative band: positive
    # throughput at every density, and the spread between the best
    # opportunistic protocol and S-FAMA narrows or stays bounded.
    sfama = data.series["S-FAMA"]
    for protocol in ("ROPA", "CS-MAC", "EW-MAC"):
        series = data.series[protocol]
        assert all(v > 0 for v in series)
        gap_first = series[0] - sfama[0]
        gap_last = series[-1] - sfama[-1]
        # quick mode is noisy; require only that the gap does not explode
        assert gap_last <= max(gap_first * 2.0, gap_first + 0.25)
