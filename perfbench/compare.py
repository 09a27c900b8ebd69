"""Compare two suite result files against the bounds in ``BENCHMARK.json``.

    python3 perfbench/compare.py BASELINE.json CANDIDATE.json

* **FAIL** when a workload's end-to-end median is worse than the baseline's
  by more than the metric's bound, or is missing from the candidate.  The
  verdicts come from ``benchmarks/check_regression.py``'s ``compare``, the
  gate the pytest-benchmark timings use; it prints every value with an
  ``s`` suffix, whatever the metric's unit.
* **FAIL** when an operation's output digest differs for the same workload
  and seed.
* **CHANGED** lists every per-layer count that differs between traced runs
  of the same workload, seed and operation count.  Counts of the service
  layers and of the tracer depend on timing (polling, idle claims), so
  they are not compared.

Exits 1 if anything FAILed, else 0.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from measure import ROOT, repo_module

#: Per-layer metrics whose counts depend on timing, not only on the inputs.
TIMING_DEPENDENT = ("service.", "trace.")


def _runs(document: Dict[str, object], trace: int) -> Dict[Tuple[str, int], Dict[str, object]]:
    return {
        (run["workload"], run["seed"]): run for run in document["runs"] if run["trace"] == trace
    }


def _medians(document: Dict[str, object], names: List[str]) -> Dict[str, float]:
    """``"<workload> <metric>"`` -> median, for the named end-to-end metrics."""
    return {
        f"{workload} {name}": row["median"]
        for workload, entry in document["summary"].items()
        for name, row in entry["end_to_end"].items()
        if name in names
    }


def compare_end_to_end(base, cand, benchmark) -> List[str]:
    compare = repo_module("benchmarks/check_regression.py", "benchmarks_check_regression").compare
    by_bound: Dict[float, List[str]] = defaultdict(list)
    for metric in benchmark["end_to_end"]:
        if metric["better"] != "lower":
            raise SystemExit(f"error: {metric['name']}: check_regression gates lower-is-better")
        by_bound[metric["bound"]].append(metric["name"])
    failures: List[str] = []
    for bound, names in sorted(by_bound.items()):
        print(f"end-to-end metrics with bound {bound:.0%}: {', '.join(names)}")
        compare(_medians(cand, names), _medians(base, names), bound, failures=failures)
    return failures


def compare_counters(base, cand, benchmark) -> int:
    counts = [m["name"] for m in benchmark["per_layer"] if m["unit"].startswith("count")]
    changed = compared = 0
    base_runs = _runs(base, 1)
    for key, run in sorted(_runs(cand, 1).items()):
        old_run = base_runs.get(key)
        if old_run is None:
            continue
        new_metrics = run["result"]["metrics"]
        old_metrics = old_run["result"]["metrics"]
        if new_metrics["trace.ops"]["value"] != old_metrics["trace.ops"]["value"]:
            print(f"SKIP    {key[0]} seed {key[1]}: traced operation counts differ")
            continue
        compared += 1
        for name in counts:
            if name.startswith(TIMING_DEPENDENT):
                continue
            new = new_metrics[name]["value"]
            old = old_metrics.get(name, {}).get("value")
            if new != old:
                changed += 1
                print(f"CHANGED {key[0]} seed {key[1]} {name}: {old} -> {new}")
    print(f"counters: {compared} traced run pair(s) compared, {changed} count(s) changed")
    return changed


def compare_digests(base, cand) -> List[str]:
    failures = []
    for trace in (0, 1):
        base_runs = _runs(base, trace)
        for key, run in sorted(_runs(cand, trace).items()):
            old_run = base_runs.get(key)
            if old_run is None:
                continue
            pairs = list(zip(old_run["digests"], run["digests"]))
            differing = [op for op, (old, new) in enumerate(pairs) if old != new]
            if differing:
                failures.append(f"{key[0]} seed {key[1]}: outputs differ at operation(s) {differing}")
                print(f"FAIL    {key[0]} seed {key[1]} trace {trace}: output digests differ {differing}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(args.baseline.read_text())
    cand = json.loads(args.candidate.read_text())
    failures = compare_end_to_end(base, cand, benchmark)
    compare_counters(base, cand, benchmark)
    failures += compare_digests(base, cand)
    for workload, entry in cand["summary"].items():
        if entry["failed"]:
            failures.append(f"{workload}: {entry['failed']} failed operation(s)")
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nno end-to-end metric worse than its bound; outputs identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
