"""Run every workload in fresh processes and summarise the spread.

    python3 perfbench/suite.py --seed 1 --out results.json [--sets 5] [--traced-sets 1]

Each set runs every workload once, untraced, with seed ``seed + set``;
each traced set then runs every workload's traced pass.  Workloads run
serially, each in its own ``run.py`` process, for ``run_seconds`` (from
``BENCHMARK.json``) times ``--scale``.  Every metric line is echoed as
``<workload> <metric> <value> <unit> n=<samples>``; the output file holds
every run, the machine fingerprint and, per workload and end-to-end metric,
the median, quartiles and spread (quartile distance over median) across
sets.  ``compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from measure import HERE, ROOT, scratch_dir

RUN_TIMEOUT_S = 900


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> Dict[str, object]:
    """Where the numbers were taken."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One ``run.py`` process; returns its result, details and wall time."""
    with scratch_dir("detail-") as tmp:
        detail_path = tmp / "detail.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--detail", str(detail_path),
        ]
        start = time.perf_counter()
        proc = subprocess.run(
            command, cwd=str(ROOT), capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
        wall_s = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
        detail = json.loads(detail_path.read_text())
    for line in lines[:-1]:
        if not trace or line.startswith(("error", f"{workload} ops")):
            print(line)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": wall_s,
        "result": json.loads(lines[-1]),
        **detail,
    }


def summarise(runs: List[Dict[str, object]], benchmark: Dict[str, object]) -> Dict[str, object]:
    """Median, quartiles and spread of each end-to-end metric per workload."""
    summary: Dict[str, Dict[str, object]] = {}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        table = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            table[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": metric["bound"],
                "unit": metric["unit"],
                "runs": len(values),
                "samples_per_run": statistics.median(r["samples"].get(name, 0) for r in mine),
                "values": values,
            }
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        layers = {}
        for metric in benchmark["per_layer"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in traced]
            if values:
                layers[metric["name"]] = statistics.median(values)
        summary[workload] = {
            "end_to_end": table,
            "layers": layers,
            "attempted": sum(r["result"]["attempted"] for r in mine + traced),
            "failed": sum(r["result"]["failed"] for r in mine + traced),
        }
    return summary


def print_summary(summary: Dict[str, object]) -> None:
    print("\nworkload            metric             median        q1            q3            spread  bound")
    for workload, entry in summary.items():
        for name, row in entry["end_to_end"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  (above bound/3)"
            print(
                f"{workload:19s} {name:18s} {row['median']:<13.6g} {row['q1']:<13.6g} "
                f"{row['q3']:<13.6g} {row['spread']:6.2%}  {row['bound']:.0%}{flag}"
            )
        print(f"{workload:19s} attempted={entry['attempted']} failed={entry['failed']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sets", type=int, default=1, help="untraced sets")
    parser.add_argument("--traced-sets", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies run_seconds")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"] * args.scale
    started = time.time()
    runs = []
    for trace, sets in ((0, args.sets), (1, args.traced_sets)):
        for offset in range(sets):
            for workload in names:
                runs.append(run_once(workload, args.seed + offset, seconds, trace))
    summary = summarise(runs, benchmark)
    print_summary(summary)
    document = {
        "machine": machine(),
        "seed": args.seed,
        "sets": args.sets,
        "traced_sets": args.traced_sets,
        "run_seconds": seconds,
        "wall_s": time.time() - started,
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w") as out:
        json.dump(document, out, indent=1, sort_keys=True)
        out.write("\n")
    failed = sum(entry["failed"] for entry in summary.values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
