"""Ablation benchmarks: the design-choice studies DESIGN.md calls out.

These are our experiments (the paper does not publish them); each checks
the qualitative claim its docstring states, at quick-mode scale.
"""

from conftest import emit

from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.engine import run_plans


def test_ablation_packet_size(one_shot, sweep_workers):
    """Paper Sec. 2: larger packets amortize the slot cost for everyone."""
    data = one_shot(
        run_plans, [ALL_ABLATIONS["abl-packet-size"](quick=True)], workers=sweep_workers
    )[0].figure
    emit(data)
    for protocol, series in data.series.items():
        assert series[-1] > series[0] * 0.9, f"{protocol} lost from larger packets"


def test_ablation_clock_skew(one_shot, sweep_workers):
    """Slot misalignment must not *improve* a slotted protocol."""
    data = one_shot(
        run_plans, [ALL_ABLATIONS["abl-clock-skew"](quick=True)], workers=sweep_workers
    )[0].figure
    emit(data)
    for protocol, series in data.series.items():
        assert series[-1] <= series[0] * 1.15, f"{protocol} improved under skew"


def test_ablation_interference_range(one_shot, sweep_workers):
    """Wider interference lowers everyone's throughput ceiling."""
    data = one_shot(
        run_plans, [ALL_ABLATIONS["abl-interference"](quick=True)], workers=sweep_workers
    )[0].figure
    emit(data)
    for protocol, series in data.series.items():
        assert series[-1] <= series[0] * 1.2, protocol


def test_ablation_deployment_density(one_shot, sweep_workers):
    """Small volumes are contention-limited: lower ceiling than Table 2's."""
    data = one_shot(
        run_plans, [ALL_ABLATIONS["abl-density"](quick=True)], workers=sweep_workers
    )[0].figure
    emit(data)
    sfama = data.series["S-FAMA"]
    assert sfama[0] <= sfama[-1] * 1.5  # dense <= sparse (with slack)


def test_ablation_aloha_anchor(one_shot, sweep_workers):
    """The no-negotiation anchor runs and carries traffic at every load."""
    data = one_shot(
        run_plans, [ALL_ABLATIONS["abl-aloha"](quick=True)], workers=sweep_workers
    )[0].figure
    emit(data)
    assert all(v > 0 for v in data.series["ALOHA"])
