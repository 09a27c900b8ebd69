"""Replication statistics for simulation experiments.

Multi-seed experiment analysis: means and Student-t confidence
intervals.  Uses scipy, imported on first use, when the exact t quantile
matters; falls back to a normal approximation otherwise.  Protocol orderings are not tested here
but per seed, by the sign test of :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: z quantiles for the normal-approximation fallback.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation; 0.0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))


def _t_quantile(confidence: float, dof: int) -> float:
    # scipy is imported here, not at module load: importing this module
    # (the ``--chart`` path does, through the package) must not pay for it.
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover
        base = _Z.get(round(confidence, 2), 1.96)
        # crude dof correction for the fallback path
        return base * (1.0 + 1.0 / max(dof, 1))
    return float(stats.t.ppf(0.5 + confidence / 2.0, dof))


@dataclass(frozen=True)
class Estimate:
    """A replicated measurement: mean with a confidence interval."""

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "Estimate") -> bool:
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def estimate(values: Sequence[float], confidence: float = 0.95) -> Estimate:
    """Mean with a Student-t confidence interval."""
    if not values:
        raise ValueError("no values")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(values)
    mu = mean(values)
    if n < 2:
        return Estimate(mean=mu, half_width=math.inf, n=n, confidence=confidence)
    half = _t_quantile(confidence, n - 1) * sample_std(values) / math.sqrt(n)
    return Estimate(mean=mu, half_width=half, n=n, confidence=confidence)
