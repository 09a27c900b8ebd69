"""Tests of the benchmark harness itself (outside the tier-1 test paths).

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import END_TO_END, HERE, PER_LAYER, ROOT, iter_inputs, require_program, scratch_dir, sim_seed  # noqa: E402

require_program()

from cells import _cell_op  # noqa: E402
from repro.des.events import EventQueue  # noqa: E402
from repro.experiments.config import table2_config  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Per-thread fake time, advanced explicitly by the synthetic call tree."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


def test_self_time_arithmetic_on_nested_spans_in_two_threads():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    barrier = threading.Barrier(2)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        barrier.wait(timeout=10)  # both threads hold open spans at once
        tracer.span("b", "leaf", leaf, ())
        clock.advance(0.5)

    def root():
        clock.advance(0.25)
        tracer.span("a", "middle", middle, ())
        tracer.span("b", "leaf", leaf, ())

    threads = [threading.Thread(target=tracer.span, args=("root", None, root, ())) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    report = tracer.report()
    # Per thread: root 0.25 s self of 5.75 s; middle 1.5 s self of 3.5 s;
    # two leaves of 2 s each.
    assert report["self_s"] == {"root": 0.5, "a": 3.0, "b": 8.0}
    assert report["calls"] == {"root": 2, "a": 2, "b": 4}
    assert report["children"] == {"root": 4, "a": 2}
    assert report["name_s"] == {"middle": 7.0, "leaf": 8.0}


def test_traced_cell_is_bit_identical_and_uninstall_restores():
    config = table2_config(n_sensors=12, sim_time_s=20.0, seed=5)
    plain = _cell_op(config)
    tracer = Tracer().install()
    try:
        traced = _cell_op(config)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    report = tracer.report()
    # An entry point reported missing must really be absent from the program.
    for entry in report["missing"]:
        module, _, path = entry.partition(":")
        assert Tracer()._resolve(module, path)[2] is None, entry
    for layer in ("des", "phy.channel", "phy.modem", "acoustic", "mac", "core.ewmac",
                  "topology", "metrics", "experiments", "experiments.setup"):
        assert report["self_s"].get(layer, 0.0) > 0.0, layer
    assert report["counters"]["des.events"] > 0
    assert EventQueue.push.__module__ == "repro.des.events"
    assert _cell_op(config).digest == plain.digest


def test_same_seed_gives_same_inputs():
    def take(seed, pool=None):
        return list(itertools.islice(iter_inputs(seed, 0.1, pool), 50))

    assert take(3) == take(3)
    assert take(3) != take(4)
    assert [op_seed for op_seed, _ in take(3)] == [sim_seed(3, op) for op in range(50)]
    pooled = take(3, pool=8)
    assert pooled == take(3, pool=8)
    assert {op_seed for op_seed, _ in pooled} <= {sim_seed(3, op) for op in range(8)}


@pytest.fixture(scope="module")
def quick_suite():
    with scratch_dir("test-suite-") as tmp:
        out = tmp / "suite.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "suite.py"), "--seed", "2", "--scale", "0.05",
             "--out", str(out)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=600,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        yield json.loads(out.read_text()), elapsed


def test_scaled_down_suite_runs_every_workload_quickly(quick_suite):
    document, elapsed = quick_suite
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert elapsed < 60
    assert set(document["summary"]) == {w["name"] for w in benchmark["workloads"]}
    for entry in document["summary"].values():
        assert entry["attempted"] > 0 and entry["failed"] == 0


def test_printed_metrics_are_the_declared_ones(quick_suite):
    document, _ = quick_suite
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    assert declared == {0: END_TO_END, 1: PER_LAYER}
    for run in document["runs"]:
        printed = {name: m["unit"] for name, m in run["result"]["metrics"].items()}
        assert printed == declared[run["trace"]], (run["workload"], run["trace"])
        assert run["result"]["correct"] is True
