"""Shared pieces of the benchmark: paths, inputs, statistics, results."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark runs in; the program is built from ``src/``.
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and caches (inside the checkout, git-ignored).
TMP_ROOT = ROOT / ".perfbench-tmp"


def require_program() -> None:
    """Put the program on ``sys.path``, or stop if the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'repro'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def repo_module(relative_path: str, name: str) -> ModuleType:
    """Import one of the repository's own script files as module ``name``.

    The figure benchmarks' ``conftest.py`` and ``check_regression.py`` are
    loaded by path under a name of their own, so they cannot clash with
    another ``conftest`` on ``sys.path``.
    """
    spec = importlib.util.spec_from_file_location(name, ROOT / relative_path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"error: cannot load {relative_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sim_seed(seed: int, op: int) -> int:
    """Simulation seed of operation ``op`` in a run with benchmark seed ``seed``."""
    return 1000 * seed + op


def iter_inputs(
    seed: int, think_high_s: float, pool: Optional[int] = None
) -> Iterator[Tuple[int, float]]:
    """Client operations as ``(simulation seed, think time before it)``.

    Operation ``i`` simulates with :func:`sim_seed` ``(seed, i)``; with a
    ``pool`` it instead repeats one of the first ``pool`` operations,
    chosen at random.  Think times are uniform on ``[0, think_high_s)``.
    """
    rng = random.Random(f"client-{seed}")
    op = 0
    while True:
        think_s = rng.uniform(0.0, think_high_s)
        chosen = op if pool is None else rng.randrange(pool)
        yield sim_seed(seed, chosen), think_s
        op += 1


def digest(document: object) -> str:
    """SHA-256 of a document's canonical JSON."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (1..99) of two or more values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(count: int) -> Optional[int]:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for q in (50, 90, 99):
        if count * (100 - q) / 100.0 >= 10:
            best = q
    return best


def self_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`TMP_ROOT`, removed afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=str(TMP_ROOT)))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples behind the value (0 for counts and ratios).
    n: int = 0


#: End-to-end metrics, printed by every untraced run: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics other than each layer's self time, share and calls.
_LAYER_EXTRAS: Dict[str, str] = {
    "des.events": "count/op",
    "des.pushes": "count/op",
    "des.bulk_events": "count/op",
    "phy.channel.broadcasts": "count/op",
    "phy.channel.deliveries": "count/op",
    "phy.vectorized.cache_misses": "count/op",
    "phy.vectorized.hit_ratio": "ratio",
    "phy.vectorized.rows_refreshed": "count/op",
    "phy.vectorized.grid_candidates": "count/op",
    "phy.vectorized.rows_skipped": "count/op",
    "phy.modem.arrivals": "count/op",
    "phy.modem.decode_ok_ratio": "ratio",
    "acoustic.sinr_calls": "count/op",
    "mac.handshake_ratio": "ratio",
    "core.ewmac.extra_ratio": "ratio",
    "service.queue_wait_p50_s": "s",
    "service.run_p50_s": "s",
    "service.delivery_p50_s": "s",
    "service.worker.idle_claims": "count/op",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
    "trace.span_cost_us": "us",
    "trace.coverage": "ratio",
}

#: Per-layer metrics, printed by every traced run: name -> unit.
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s/op"
    PER_LAYER[f"{_layer}.self_corr_s"] = "s/op"
    PER_LAYER[f"{_layer}.share"] = "fraction"
    PER_LAYER[f"{_layer}.calls"] = "count/op"
PER_LAYER.update(_LAYER_EXTRAS)


def layer_metrics(
    report: Dict[str, Dict[str, float]],
    ops: int,
    span_cost_s: float,
    extra: Dict[str, float],
) -> Dict[str, Metric]:
    """Every :data:`PER_LAYER` metric from a tracer report over ``ops`` operations.

    ``extra`` supplies what the report cannot: the overhead ratio, the
    coverage and, for the service, the job-timestamp medians.  Missing
    values read 0.
    """
    self_s = report.get("self_s", {})
    children = report.get("children", {})
    calls = report.get("calls", {})
    names = report.get("names", {})
    counters = report.get("counters", {})
    per_op = 1.0 / max(ops, 1)
    # A span's bookkeeping runs inside its parent's interval, so the
    # calibrated cost of every child span comes off the parent's self time.
    corrected = {
        layer: max(self_s.get(layer, 0.0) - children.get(layer, 0.0) * span_cost_s, 0.0)
        for layer in LAYERS
    }
    total = sum(corrected.values())
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) * per_op
        values[f"{layer}.self_corr_s"] = corrected[layer] * per_op
        values[f"{layer}.share"] = corrected[layer] / total if total else 0.0
        values[f"{layer}.calls"] = calls.get(layer, 0.0) * per_op

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    count = counters.get
    values.update(
        {
            "des.events": count("des.events", 0.0) * per_op,
            "des.pushes": names.get("des.push", 0.0) * per_op,
            "des.bulk_events": count("des.bulk_events", 0.0) * per_op,
            "phy.channel.broadcasts": count("phy.channel.broadcasts", 0.0) * per_op,
            "phy.channel.deliveries": count("phy.channel.deliveries", 0.0) * per_op,
            "phy.vectorized.cache_misses": count("phy.vectorized.cache_misses", 0.0) * per_op,
            "phy.vectorized.hit_ratio": ratio(
                count("phy.vectorized.cache_hits", 0.0),
                count("phy.vectorized.cache_hits", 0.0)
                + count("phy.vectorized.cache_misses", 0.0),
            ),
            "phy.vectorized.rows_refreshed": count("phy.vectorized.rows_refreshed", 0.0) * per_op,
            "phy.vectorized.grid_candidates": count("phy.vectorized.grid_candidates", 0.0)
            * per_op,
            "phy.vectorized.rows_skipped": count("phy.vectorized.rows_skipped", 0.0) * per_op,
            "phy.modem.arrivals": count("phy.modem.arrivals", 0.0) * per_op,
            "phy.modem.decode_ok_ratio": ratio(
                count("phy.modem.decoded_ok", 0.0), count("phy.modem.arrivals", 0.0)
            ),
            "acoustic.sinr_calls": names.get("LinkBudget.sinr_db_from_levels", 0.0) * per_op,
            "mac.handshake_ratio": ratio(
                count("mac.handshakes_completed", 0.0), count("mac.handshakes_started", 0.0)
            ),
            "core.ewmac.extra_ratio": ratio(
                count("core.ewmac.extra_completed", 0.0),
                count("core.ewmac.extra_requested", 0.0),
            ),
            "trace.ops": float(ops),
            "trace.span_cost_us": span_cost_s * 1e6,
        }
    )
    values.update(extra)
    return {name: Metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Extra lines for the human-readable report (not gated).
    info: Dict[str, Metric] = field(default_factory=dict)
    #: Output digest of each operation, in operation order.
    digests: List[str] = field(default_factory=list)
    #: Failed checks and errors, one line each.
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
