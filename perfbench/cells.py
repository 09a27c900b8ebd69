"""Cell workloads: a figure sweep and two single simulation cells, in-process.

One operation is one sweep (``fig6-quick``) or one cell (``table2-static``,
``scale-mobile-1000``); operation ``i`` simulates with seed
``1000 * seed + i``.  Import this module after
:func:`measure.require_program`.
"""

from __future__ import annotations

import functools
import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from measure import Metric, RunResult, digest, layer_metrics, repo_module, self_rss_mb, sim_seed
from repro.experiments import engine
from repro.experiments.config import table2_config
from repro.experiments.scale import scale_config
from repro.experiments.scenario import Scenario
from tracer import Tracer, calibrate_span_cost

clock = time.perf_counter

#: Set-up samples taken after each fig6 sweep.
FIG6_SETUP_REPS = 3


@dataclass
class Output:
    """One operation's checked output."""

    digest: str
    #: Failed output checks.
    problems: List[str]
    #: Time to construct the operation's scenarios, when the op measures it.
    setup_s: Optional[float] = None
    #: The figure itself, kept for the post-run checks.
    document: Optional[Dict[str, object]] = None


@functools.lru_cache(maxsize=None)
def _figure_check() -> Callable[[engine.FigureData, str], None]:
    """The figure benchmarks' ``check_figure``; loading it imports pytest.

    It asserts, so under ``python -O`` it checks nothing.
    """
    return repo_module("benchmarks/conftest.py", "benchmarks_conftest").check_figure


def check_figure(figure: Dict[str, object], figure_id: str) -> List[str]:
    """``benchmarks/conftest.check_figure`` on a figure's JSON form, as problem lines."""
    try:
        _figure_check()(engine.FigureData(**figure), figure_id)
    except AssertionError as exc:
        return [f"{figure_id} fails the figure benchmarks' check_figure {exc}".rstrip()]
    return []


def check_cell(result: Dict[str, object], config) -> List[str]:
    """Sanity checks on one cell's ``ScenarioResult.to_dict()``."""
    problems = []
    for key in ("protocol", "seed", "n_sensors", "offered_load_kbps"):
        if result.get(key) != getattr(config, key):
            problems.append(f"{key} {result.get(key)!r} != config {getattr(config, key)!r}")
    for key, value in result.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not math.isfinite(value) or value < 0:
                problems.append(f"{key} = {value!r}")
    # Throughput and offered bits may be 0: a 30 s scale cell at 0.5 kbps
    # network-wide offers only a few packets.  Listening always costs power.
    if not result.get("power_mw", 0) > 0:
        problems.append("power_mw is not positive")
    return problems


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def _fig6_request(seed: int):
    return engine.SweepRequest("fig6", quick=True, seeds=(seed,))


def fig6_op(seed: int) -> Output:
    """``repro-uasn fig6 --quick`` for one seed, serial and uncached."""
    result = engine.run_request(_fig6_request(seed), workers=1, cache=None)
    figure = result.figure.to_dict()
    problems = [f"cell {f['cell']} failed: {f['error']}" for f in result.failures]
    return Output(digest(figure), problems, document=figure)


def fig6_setup(seed: int) -> float:
    """Plan one sweep and construct every scenario it runs."""
    start = clock()
    plan = engine.request_plan(_fig6_request(seed))
    for x in plan.spec.x_values:
        for protocol in plan.protocols:
            for cell_seed in plan.seeds:
                Scenario(plan.spec.configure(plan.base, x, protocol, cell_seed))
    return clock() - start


def fig6_verify(seed: int, outputs: List[Optional[Output]], result: RunResult) -> None:
    """Every figure passes ``check_figure``; operation 0's first cell, re-run
    as a bare Scenario, matches the sweep."""
    for op, output in enumerate(outputs):
        if output is not None:
            for problem in check_figure(output.document, "fig6"):
                result.fail(f"operation {op}: {problem}")
    first = outputs[0]
    if first is None:
        return
    plan = engine.request_plan(_fig6_request(sim_seed(seed, 0)))
    protocol = plan.protocols[0]
    config = plan.spec.configure(plan.base, plan.spec.x_values[0], protocol, plan.seeds[0])
    result.attempted += 1
    # One seed per sweep, so the plotted value is that cell's throughput.
    if first.document["series"][protocol][0] != Scenario(config).run_steady_state().throughput_kbps:
        result.fail(f"fig6 {protocol} cell differs from a direct Scenario run")


def _cell_op(config) -> Output:
    start = clock()
    scenario = Scenario(config)
    built = clock()
    summary = scenario.run_steady_state().to_dict()
    return Output(digest(summary), check_cell(summary, config), built - start)


def table2_op(seed: int) -> Output:
    """One static Table 2 cell: EW-MAC at 0.8 kbps, 60 sensors, 300 s."""
    return _cell_op(
        table2_config(protocol="EW-MAC", offered_load_kbps=0.8, mobility=False, seed=seed)
    )


def scale_op(seed: int) -> Output:
    """One mobile 1000-node scale cell (tiled, 30 s)."""
    return _cell_op(scale_config(1000, 30.0, seed=seed))


def _rerun_verify(op: Callable[[int], Output]):
    def verify(seed: int, outputs: List[Optional[Output]], result: RunResult) -> None:
        if outputs[0] is None:
            return
        result.attempted += 1
        if op(sim_seed(seed, 0)).digest != outputs[0].digest:
            result.fail("operation 0 is not deterministic")

    return verify


@dataclass
class CellWorkload:
    op: Callable[[int], Output]
    #: Checks the outputs (``None`` for a failed operation), in operation
    #: order, once the measured phase is over.
    verify: Callable[[int, List[Optional[Output]], RunResult], None]
    #: Traced operations per second of ``--seconds``.
    trace_rate: float
    #: Separate set-up measurement, for ops that construct internally.
    setup: Optional[Callable[[int], float]] = None


WORKLOADS: Dict[str, CellWorkload] = {
    "fig6-quick": CellWorkload(fig6_op, fig6_verify, 0.14, setup=fig6_setup),
    "table2-static": CellWorkload(table2_op, _rerun_verify(table2_op), 0.5),
    "scale-mobile-1000": CellWorkload(scale_op, _rerun_verify(scale_op), 0.28),
}


def _attempt(workload: CellWorkload, seed: int, result: RunResult):
    """Run one operation; returns ``(seconds, output)`` with output None on error."""
    result.attempted += 1
    start = clock()
    try:
        output = workload.op(seed)
    except Exception as exc:  # a failed operation is counted, not fatal
        result.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
        traceback.print_exc()
        return clock() - start, None
    elapsed = clock() - start
    for problem in output.problems:
        result.fail(f"seed {seed}: {problem}")
    return elapsed, output


def run(name: str, seed: int, seconds: float) -> RunResult:
    """Untraced pass: end-to-end metrics over ``seconds`` of operations."""
    workload = WORKLOADS[name]
    result = RunResult()
    setup_samples: List[float] = []
    latencies: List[float] = []
    outputs: List[Optional[Output]] = []
    deadline = clock() + seconds
    op = 0
    while True:
        # Start every operation from the same collector state, so a
        # collection the previous operation's garbage triggers lands here.
        gc.collect()
        elapsed, output = _attempt(workload, sim_seed(seed, op), result)
        outputs.append(output)
        if output is not None:
            latencies.append(elapsed)
            result.digests.append(output.digest)
            if output.setup_s is not None:
                setup_samples.append(output.setup_s)
        if workload.setup is not None:
            # Sampled between operations, so set-up sees the same machine
            # conditions across the run as the operations do.
            for _ in range(FIG6_SETUP_REPS):
                gc.collect()
                setup_samples.append(workload.setup(sim_seed(seed, op)))
        op += 1
        if clock() >= deadline:
            break
    # Read before the checks: check_figure imports pytest into this process.
    rss_mb = self_rss_mb()
    workload.verify(seed, outputs, result)
    if latencies:
        result.metrics = {
            "setup_s": Metric(statistics.median(setup_samples), "s", len(setup_samples)),
            "latency_p50_s": Metric(statistics.median(latencies), "s", len(latencies)),
            "peak_rss_mb": Metric(rss_mb, "MB", 1),
        }
    return result


def run_traced(name: str, seed: int, seconds: float) -> RunResult:
    """Traced pass: a fixed prefix of operations, untraced then traced."""
    workload = WORKLOADS[name]
    ops = max(1, int(seconds * workload.trace_rate))
    result = RunResult()
    span_cost_s = calibrate_span_cost()
    plain_s = traced_s = 0.0
    outputs: List[Optional[Output]] = []
    for op in range(ops):
        gc.collect()
        elapsed, output = _attempt(workload, sim_seed(seed, op), result)
        plain_s += elapsed
        outputs.append(output)
        result.digests.append(output.digest if output else "")
    workload.verify(seed, outputs, result)
    tracer = Tracer().install()
    try:
        for op in range(ops):
            gc.collect()
            elapsed, output = _attempt(workload, sim_seed(seed, op), result)
            traced_s += elapsed
            if output is not None and output.digest != result.digests[op]:
                result.fail(f"operation {op}: traced output differs from untraced")
    finally:
        tracer.uninstall()
    report = tracer.report()
    for entry in report["missing"]:
        print(f"{name}: entry point missing: {entry}")
    covered = sum(report["self_s"].values())
    result.metrics = layer_metrics(
        report,
        ops,
        span_cost_s,
        {
            "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
            "trace.coverage": covered / traced_s if traced_s else 0.0,
        },
    )
    return result
