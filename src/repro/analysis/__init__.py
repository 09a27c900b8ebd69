"""Analysis tools: closed-form models, replication statistics, charts.

Nothing here is on the sweep engine's path.  :mod:`.statistics` loads
scipy only when a confidence interval needs its t quantile, so importing
this package (as ``--chart`` does) loads no scipy.
"""

from .charts import ascii_chart, figure_chart
from .statistics import Estimate, estimate, mean, sample_std
from .theory import (
    HandshakeModel,
    contention_domain_capacity_bps,
    contention_success_probability,
    expected_contention_rounds,
    offered_load_saturation_point_kbps,
    propagation_limited_rtt_s,
    slotted_aloha_peak_utilization,
)

__all__ = [
    "Estimate",
    "HandshakeModel",
    "ascii_chart",
    "contention_domain_capacity_bps",
    "contention_success_probability",
    "estimate",
    "expected_contention_rounds",
    "figure_chart",
    "mean",
    "offered_load_saturation_point_kbps",
    "propagation_limited_rtt_s",
    "sample_std",
    "slotted_aloha_peak_utilization",
]
