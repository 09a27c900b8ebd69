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
``plan_golden.json``.  The number of unique cells each CLI group runs
(``run_plans`` dedupes the cells of all its plans by ``(config, batch)``)
is pinned here too, with the check that this partition is the one
``cell_key`` gives.  After a deliberate change to what some plan
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


def _cells(target: str, quick: bool):
    plan = _plan(target, quick)
    return expand_cells(plan.spec, plan.base, plan.protocols, plan.seeds)


def pin(target: str, quick: bool) -> Dict[str, object]:
    plan = _plan(target, quick)
    keys = [cell_key(cell.config, cell.batch, "pinned") for cell in _cells(target, quick)]
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


#: Unique cells per group at (quick, full) size: ``all``/``report`` and
#: ``ablations`` run their group's plans as one cell set.
UNIQUE_CELLS = {
    "all": (sorted(ALL_PLANS), (76, 420)),
    "ablations": (sorted(ALL_ABLATIONS), (36, 217)),
    "every target": (_targets(), (112, 643)),
}


@pytest.mark.parametrize("group", sorted(UNIQUE_CELLS))
def test_unique_cells_per_group(group):
    targets, counts = UNIQUE_CELLS[group]
    unique = tuple(
        len({(c.config, c.batch) for t in targets for c in _cells(t, quick)})
        for _, quick in MODES
    )
    assert unique == counts


@pytest.mark.parametrize("mode,quick", MODES)
def test_dedupe_partition_is_the_cell_key_partition(mode, quick):
    pairs = {
        ((c.config, c.batch), cell_key(c.config, c.batch, "pinned"))
        for target in _targets()
        for c in _cells(target, quick)
    }
    # One key per (config, batch) class and one class per key.
    assert len(pairs) == len({cls for cls, _ in pairs}) == len({key for _, key in pairs})


if __name__ == "__main__":
    pinned = {
        f"{target} {mode}": pin(target, quick)
        for target in _targets()
        for mode, quick in MODES
    }
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} pinned plans to {GOLDEN}", file=sys.stderr)
