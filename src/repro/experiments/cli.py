"""Command-line entry point: regenerate any paper figure, or serve sweeps.

Examples::

    repro-uasn fig6                  # full Fig. 6 sweep at its own seeds
    repro-uasn fig8 --quick          # scaled-down Fig. 8
    repro-uasn all --quick --csv out # everything, CSVs into ./out
    repro-uasn report --workers 2    # run 'all', rebuild EXPERIMENTS.md
    repro-uasn table2                # print the Table 2 defaults
    repro-uasn serve --port 8642     # REST job service over the engine

Exit codes: ``0`` success, ``1`` engine-level failure (a sweep cell
failed permanently, a chaos audit tripped, the A/B gate diverged),
``2`` bad invocation (invalid config override, malformed arguments).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .config import TABLE2
from .engine import EngineError, observe_sweeps, run_plans, target_groups, targets
from .report import format_figure, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-uasn",
        description="Reproduce the EW-MAC paper's evaluation figures.",
    )
    parser.add_argument(
        "target",
        choices=sorted(set(targets()) | set(target_groups()))
        + ["scale", "serve", "table2", "report"],
        help="figure or ablation to regenerate ('all' = paper figures, "
        "'ablations' = every ablation, 'chaos' = seeded fault-injection "
        "robustness sweep, 'scale' = wall-clock scaling sweep over node "
        "count, 'serve' = run the REST job service, 'report' = run 'all' "
        "and write the paper-vs-measured record to --out)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default="EXPERIMENTS.md",
        metavar="FILE",
        help="output path for the 'report' target",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, help="run seeds 1..N (default: each target's own)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down run (coarse axis, 1 seed)"
    )
    parser.add_argument(
        "--csv", type=str, default=None, metavar="DIR", help="also write CSVs here"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep cells over N worker processes (0 = CPU count; "
        "default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of reusing the on-disk result "
        "cache (default cache dir: ./.repro-cache, override with "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for each cell's first attempt, at any "
        "--workers; a cell over budget is re-run from zero in-process up "
        "to 3 more times at twice the budget, then fails (a cell that "
        "raises fails at once).  The cell is the unit of recovery: "
        "finished cells are kept in the result cache (unless --no-cache), so "
        "a rerun after an interruption recomputes only unfinished cells",
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a ScenarioConfig field of the target's base config "
        "(repeatable, e.g. --override n_sensors=20 --override "
        "sim_time_s=60.0); an unknown field or invalid value exits 2",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions plus "
        "per-subsystem perf counters (forces --workers 1 and --no-cache "
        "so every cell is computed, and profiled, in this process)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print per-run progress"
    )
    parser.add_argument(
        "--chart", action="store_true", help="also render ASCII line charts"
    )
    service = parser.add_argument_group("serve target")
    service.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (serve)"
    )
    service.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (serve; 0 picks a free port, printed on stdout)",
    )
    service.add_argument(
        "--store",
        type=str,
        default=".repro-service.sqlite",
        metavar="FILE",
        help="persistent job store path (serve); jobs leased by a crashed "
        "service are requeued once their lease expires",
    )
    service.add_argument(
        "--service-workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent job worker threads (serve); each job additionally "
        "fans its cells over --workers processes",
    )
    service.add_argument(
        "--lease-s",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="job claim lease duration (serve); a worker that stops "
        "heartbeating for this long loses its job back to the queue",
    )
    service.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="retry budget per job (serve); a job whose worker crashes N "
        "times is quarantined instead of requeued",
    )
    service.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="LINES",
        help="fault injection (serve): SIGKILL this service process after "
        "the N-th progress line of any job, leaving a leased running job "
        "behind (crash-recovery smoke test)",
    )
    service.add_argument(
        "--allow-shutdown",
        action="store_true",
        help="enable POST /shutdown for clean remote stops (CI smoke)",
    )
    service.add_argument(
        "--http-log",
        action="store_true",
        help="log every HTTP request to stderr (serve)",
    )
    return parser


def parse_overrides(pairs: List[str]) -> Dict[str, object]:
    """``FIELD=VALUE`` strings -> typed override mapping.

    Values parse as Python literals (``20``, ``60.0``, ``False``);
    anything unparseable stays a string.  A pair without ``=`` raises
    :class:`~repro.experiments.engine.EngineError` (exit code 2).
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise EngineError(
                f"bad --override {pair!r}: expected FIELD=VALUE"
            )
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[name] = value
    return overrides


def _run_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Sweep-execution kwargs shared by plan targets and ``serve``."""
    return {
        "workers": None if args.workers == 0 else args.workers,
        "cache": not args.no_cache,
        "cell_timeout_s": args.cell_timeout,
    }


def _reject_sweep_flags(args: argparse.Namespace) -> None:
    """Refuse sweep-engine flags on ``scale``, which would silently ignore them.

    ``scale`` times each cell in-process rather than through the sweep
    engine: its metric is per-cell wall time, which a cache hit would
    falsify.
    """
    given = [
        ("--override", bool(args.override)),
        ("--cell-timeout", args.cell_timeout is not None),
        ("--workers", args.workers != 1),
    ]
    for flag, present in given:
        if present:
            raise EngineError(
                f"{flag} is not supported by target {args.target!r}: "
                "scale runs in-process without the sweep engine"
            )


def _print_table2() -> None:
    print("Table 2. Simulation parameters")
    for key, value in TABLE2.items():
        print(f"  {key:28s} {value}")


def _finish_observed(stats, args: argparse.Namespace) -> int:
    """Shared epilogue: cache accounting and the failure exit code."""
    if not args.no_cache:
        print(f"  {stats.cache_line()}")
    if stats.failures:
        for failure in stats.failures:
            print(
                f"FAIL: cell {failure.cell.label} failed permanently: "
                f"{failure.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def _serve(args: argparse.Namespace) -> int:
    from ..service.api import serve

    return serve(
        host=args.host,
        port=args.port,
        store_path=args.store,
        n_service_workers=args.service_workers,
        run_kwargs=_run_kwargs(args),
        allow_shutdown=args.allow_shutdown,
        quiet=not args.http_log,
        lease_s=args.lease_s,
        max_attempts=args.max_attempts,
        chaos_kill_after=args.chaos_kill_after,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        # Engine-level config/validation failures surface as a named
        # error and a nonzero exit, never a silent success.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.target == "table2":
        _print_table2()
        return 0
    if args.target == "serve":
        return _serve(args)
    progress = (lambda msg: print(f"  .. {msg}", file=sys.stderr)) if args.verbose else None
    seeds = None if args.seeds is None else tuple(range(1, args.seeds + 1))
    if args.target == "scale":
        _reject_sweep_flags(args)
        from .scale import scale

        data = scale(seeds=seeds or (1,), quick=args.quick, progress=progress)
        print(format_figure(data))
        if args.csv:
            path = write_csv(data, Path(args.csv) / "scale.csv")
            print(f"  csv: {path}")
        return 0
    group = "all" if args.target == "report" else args.target
    run_ids = sorted(target_groups().get(group, [group]))
    overrides = parse_overrides(args.override) or None
    rows = targets()
    plans = [rows[target](seeds, args.quick, overrides) for target in run_ids]
    profiler = None
    if args.profile:
        # Child processes would escape the profiler and the in-process perf
        # accumulator, and cache hits would skip the work being measured.
        args.workers = 1
        args.no_cache = True
        from ..perf import GLOBAL_PERF

        GLOBAL_PERF.reset()
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        with observe_sweeps() as stats:
            outcomes = run_plans(plans, progress=progress, **_run_kwargs(args))
        for target, (data, summary, error) in zip(run_ids, outcomes):
            if error is not None:
                # One figure that cannot be built (a zero baseline) costs
                # only that figure; the exit code still says so.
                print(f"error: {target}: {type(error).__name__}: {error}", file=sys.stderr)
                continue
            print(format_figure(data))
            if summary is not None:
                for line in summary.lines():
                    print(f"  {line}")
            if args.chart:
                from .charts import figure_chart

                print(figure_chart(data))
            if args.csv:
                path = write_csv(data, Path(args.csv) / f"{target}.csv")
                print(f"  csv: {path}\n")
    finally:
        if profiler is not None:
            profiler.disable()
            _print_profile(profiler)
    status = _finish_observed(stats, args)
    if any(outcome.error is not None for outcome in outcomes):
        return 2
    if status:
        return status
    for _, summary, _ in outcomes:
        failure = summary.failure() if summary is not None else None
        if failure is not None:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    if args.target == "report":
        from .experiments_doc import build_experiments_md

        Path(args.out).write_text(build_experiments_md(outcomes))
        print(f"wrote {args.out}")
    return 0


def _print_profile(profiler: "cProfile.Profile") -> None:
    """Perf-counter summary plus the 25 hottest functions by cumulative time."""
    import io
    import pstats

    from ..perf import GLOBAL_PERF

    print("\n== perf counters " + "=" * 47)
    for line in GLOBAL_PERF.summary_lines():
        print(f"  {line}")
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    print("== cProfile (top 25 by cumulative time) " + "=" * 24)
    print(buffer.getvalue())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
