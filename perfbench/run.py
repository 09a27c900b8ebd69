"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table2-static --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Prints one ``<workload> <metric> <value> <unit> n=<samples>`` line per
metric, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics instead.  ``--detail FILE`` also writes the sample
counts, output digests and errors as JSON (the suite reads it).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from measure import END_TO_END, PER_LAYER, Metric, require_program

CELL_WORKLOADS = ("fig6-quick", "table2-static", "scale-mobile-1000")
SERVICE_WORKLOADS = ("service-fresh", "service-dedupe")
WORKLOADS = CELL_WORKLOADS + SERVICE_WORKLOADS
#: Output digests written to ``--detail``: the first operations of the run.
DIGESTS_KEPT = 32


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", default=None, metavar="FILE", help="write details as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("error: --seed must be >= 0 and --seconds > 0")
    require_program()
    # Turn SIGTERM into SystemExit so the service workloads' cleanup runs
    # and no ``serve`` process outlives the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload in SERVICE_WORKLOADS:
        import service_jobs as workloads
    else:
        import cells as workloads
    run = workloads.run_traced if args.trace else workloads.run
    result = run(args.workload, args.seed, args.seconds)

    declared = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in declared if name not in result.metrics]
    for name in missing:
        result.fail(f"metric {name} not measured")
        result.metrics[name] = Metric(0.0, declared[name])
    for name, metric in list(result.metrics.items()) + list(result.info.items()):
        print(f"{args.workload} {name} {metric.value:.6g} {metric.unit} n={metric.n}")
    print(f"{args.workload} ops attempted={result.attempted} failed={result.failed}")
    for error in result.errors[:20]:
        print(f"error: {error}")
    if args.detail:
        with open(args.detail, "w") as out:
            json.dump(
                {
                    "samples": {name: m.n for name, m in result.metrics.items()},
                    "info": {name: [m.value, m.unit, m.n] for name, m in result.info.items()},
                    "digests": result.digests[:DIGESTS_KEPT],
                    "errors": result.errors,
                },
                out,
            )
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": max(result.attempted, 1),
                "failed": result.failed,
                "metrics": {
                    name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
