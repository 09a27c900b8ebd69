"""Golden plans: every target's cells, pinned at quick and full size.

For each figure, ablation and the chaos sweep, at ``quick=True`` and
``quick=False`` with the target's default seeds, this pins the plan's
``figure_id``, ``protocols`` and ``seeds`` and the ordered list of
``cell_key(cell.config, cell.batch, "pinned")`` over ``expand_cells``.
The cell keys cover every config field of every cell (the axes, the base
config, the seed) and the batch parameters, so any change to what a plan
would simulate shows here without running a cell.  The fixed version
string keeps source edits from re-keying the cells.

The key lists are stored as SHA-256 digests with their lengths in
``plan_golden.json``.  After a deliberate change to what some plan
simulates, regenerate the file with::

    PYTHONPATH=src python tests/experiments/test_plan_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.cache import cell_key
from repro.experiments.engine import SweepRequest, request_plan
from repro.experiments.figures import ALL_PLANS
from repro.experiments.parallel import expand_cells

GOLDEN = Path(__file__).with_name("plan_golden.json")

MODES = (("quick", True), ("full", False))


def _plan(target: str, quick: bool):
    """The target's plan at its default seeds (chaos via the request layer)."""
    if target == "chaos":
        return request_plan(SweepRequest(target="chaos", quick=quick))
    factory = ALL_PLANS.get(target) or ALL_ABLATIONS[target]
    return factory(quick=quick)


def _targets():
    return sorted(ALL_PLANS) + sorted(ALL_ABLATIONS) + ["chaos"]


def pin(target: str, quick: bool) -> Dict[str, object]:
    plan = _plan(target, quick)
    keys = [
        cell_key(cell.config, cell.batch, "pinned")
        for cell in expand_cells(plan.spec, plan.base, plan.protocols, plan.seeds)
    ]
    return {
        "figure_id": plan.figure_id,
        "protocols": list(plan.protocols),
        "seeds": list(plan.seeds),
        "n_cells": len(keys),
        "cells_sha256": hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest(),
    }


def _golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_target():
    assert sorted(_golden()) == sorted(
        f"{target} {mode}" for target in _targets() for mode, _ in MODES
    )


@pytest.mark.parametrize("mode,quick", MODES)
@pytest.mark.parametrize("target", _targets())
def test_plan_cells_match_golden(target, mode, quick):
    assert pin(target, quick) == _golden()[f"{target} {mode}"]


if __name__ == "__main__":
    pinned = {
        f"{target} {mode}": pin(target, quick)
        for target in _targets()
        for mode, quick in MODES
    }
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} pinned plans to {GOLDEN}", file=sys.stderr)
