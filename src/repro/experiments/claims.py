"""The paper's qualitative claims as data, and the one rule that tests them.

A paper figure's row of the target table carries its claims as its
``summarize`` (a :class:`Claims`).  A :class:`Claim` is the claim's text
plus a *margin*: a function of one seed's per-x series — ``{protocol:
[value at each x]}`` in the row's own metric, each value divided by the
same seed's S-FAMA value on a relative row — that is positive when the
claim holds on that seed.

:func:`verdict` drops zero margins and runs an exact one-sided sign test
(:func:`sign_test`) on the rest: PASS when the positive margins give
p < 0.05, FAIL when the negative ones do, INCONCLUSIVE otherwise.  With
n seeds the smallest p is 2**-n, so no claim can be settled on fewer
than five seeds.

A claim the data contradicts is a finding about the substrate, not an
engine failure, so :meth:`Verdicts.failure` is always ``None``.  Pure
Python (``math.comb``): this module runs on every figure sweep.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .engine import GridResults
    from .figures import PlanRow

#: One seed's per-x series, by protocol.
Series = Mapping[str, Sequence[float]]

#: Significance level of the sign test.
ALPHA = 0.05

#: Every verdict line starts with this.
PREFIX = "claim "


def sign_test(k: int, n: int) -> float:
    """Exact one-sided sign test: P(at least k of n fair coin flips land heads)."""
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n


class Claim(NamedTuple):
    """A paper claim: its text and its per-seed margin."""

    text: str
    margin: Callable[[Series], float]


class Verdict(NamedTuple):
    """A claim's verdict over ``n`` seeds with a non-zero margin."""

    text: str
    outcome: str  # "PASS", "FAIL" or "INCONCLUSIVE"
    n: int
    holds: int  # seeds whose margin is positive
    p: float

    def line(self) -> str:
        return (
            f"{PREFIX}{self.outcome} (holds on {self.holds} of n={self.n}, "
            f"p={self.p:.3g}): {self.text}"
        )


def verdict(text: str, margins: Sequence[float]) -> Verdict:
    """Sign-test a claim's per-seed margins (zero margins dropped)."""
    signs = [m > 0 for m in margins if m != 0]
    n, holds = len(signs), sum(signs)
    p_holds, p_fails = sign_test(holds, n), sign_test(n - holds, n)
    if p_holds < ALPHA:
        return Verdict(text, "PASS", n, holds, p_holds)
    if p_fails < ALPHA:
        return Verdict(text, "FAIL", n, holds, p_fails)
    return Verdict(text, "INCONCLUSIVE", n, holds, min(p_holds, p_fails))


def seed_series(
    grid: "GridResults", metric: Callable[..., float], relative: bool = False
) -> List[Dict[str, List[float]]]:
    """Each seed's per-x series, in seed order, paired by ``config.seed``.

    A seed missing any cell of the grid (a failed cell), or, on a
    relative row, with a zero S-FAMA value at some x, is dropped.
    """
    xs = sorted({x for x, _ in grid})
    protocols = list(dict.fromkeys(protocol for _, protocol in grid))
    values: Dict[int, Dict[tuple, float]] = {}
    for cell, results in grid.items():
        for result in results:
            values.setdefault(result.config.seed, {})[cell] = metric(result)
    seeds = []
    for seed in sorted(values):
        cells = values[seed]
        if len(cells) < len(grid):
            continue
        series = {p: [cells[(x, p)] for x in xs] for p in protocols}
        if relative:
            base = series["S-FAMA"]
            if 0 in base:
                continue
            series = {p: [v / b for v, b in zip(s, base)] for p, s in series.items()}
        seeds.append(series)
    return seeds


class Verdicts(NamedTuple):
    """A figure's claim verdicts: the plan summary the front ends print."""

    verdicts: List[Verdict]

    def lines(self) -> List[str]:
        return [v.line() for v in self.verdicts]

    def failure(self) -> Optional[str]:
        return None


class Claims:
    """A figure's claims; called with its row and grid as the plan summary."""

    def __init__(self, *claims: Claim) -> None:
        self.claims = claims

    def __call__(self, row: "PlanRow", grid: "GridResults") -> Verdicts:
        seeds = seed_series(grid, row.metric, row.relative)
        return Verdicts(
            [verdict(c.text, [c.margin(s) for s in seeds]) for c in self.claims]
        )


# ----------------------------------------------------------------------
# Margin vocabulary for the claim rows
# ----------------------------------------------------------------------
def above(s: Series, high: str, low: str, i: int = -1) -> float:
    """How far ``high`` is above ``low`` at index ``i`` (the last x)."""
    return s[high][i] - s[low][i]


def lead(s: Series, protocol: str, i: int) -> float:
    """How far ``protocol`` is above the best other protocol at index ``i``."""
    return s[protocol][i] - max(v[i] for p, v in s.items() if p != protocol)


def ascending(s: Series, order: Sequence[str], at: Optional[Sequence[int]] = None) -> float:
    """The smallest step of ``order`` (lowest first) over indexes ``at`` (all x)."""
    indexes = range(len(s[order[0]])) if at is None else at
    return min(
        s[high][i] - s[low][i] for i in indexes for low, high in zip(order, order[1:])
    )


def growth(s: Series, protocol: str) -> float:
    """``protocol``'s value at the last x minus at the first."""
    return s[protocol][-1] - s[protocol][0]
