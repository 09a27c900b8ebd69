"""Tests for the parallel sweep engine and the on-disk result cache."""

from __future__ import annotations

import os
import re
import time

import pytest

import repro.experiments.parallel as parallel_mod
from repro.des.errors import WallClockExceeded
from repro.experiments.cache import ResultCache, cell_key, code_version
from repro.experiments.config import table2_config
from repro.experiments.engine import SweepSpec, observe_sweeps
from repro.experiments.parallel import (
    ParallelSweepRunner,
    SweepCell,
    expand_cells,
    execute_cell,
)
from repro.experiments.scenario import Scenario
from tests.reference_sweep import reference_sweep, run_grid


def _configure(base, x, protocol, seed):
    return base.with_(offered_load_kbps=x, protocol=protocol, seed=seed)


def _quick_base(**overrides):
    defaults = dict(n_sensors=10, sim_time_s=15.0, side_m=3000.0)
    defaults.update(overrides)
    return table2_config(**defaults)


def _quick_spec(x_values=(0.2, 0.6), batch=None):
    return SweepSpec(x_values=list(x_values), configure=_configure, batch=batch)


PROTOCOLS = ("S-FAMA", "EW-MAC")
SEEDS = (1, 2)


def _grid_dicts(grid):
    """Per-cell, per-seed flat summaries keyed like the grid."""
    return {
        key: [result.to_dict() for result in cell] for key, cell in grid.items()
    }


def _flat(grid):
    """A grid's summaries in cell order (x, then protocol, then seed)."""
    return [result.to_dict() for cell in grid.values() for result in cell]


def _dicts(results):
    """``run_cells`` slots as summaries (``None`` for a failed cell)."""
    return [None if result is None else result.to_dict() for result in results]


class TestExpandCells:
    def test_serial_loop_order_and_indices(self):
        cells = expand_cells(_quick_spec(), _quick_base(), PROTOCOLS, SEEDS)
        assert len(cells) == 8
        assert [cell.index for cell in cells] == list(range(8))
        # x-major, then protocol, then seed: the serial loop's order
        assert [(c.x, c.protocol, c.seed) for c in cells[:3]] == [
            (0.2, "S-FAMA", 1),
            (0.2, "S-FAMA", 2),
            (0.2, "EW-MAC", 1),
        ]

    def test_configs_resolved_in_parent(self):
        cells = expand_cells(_quick_spec(), _quick_base(), PROTOCOLS, SEEDS)
        for cell in cells:
            assert cell.config.offered_load_kbps == cell.x
            assert cell.config.protocol == cell.protocol
            assert cell.config.seed == cell.seed
            assert cell.batch is None

    def test_batch_params_evaluated(self):
        spec = _quick_spec(x_values=(0.1,), batch=lambda x, config: (3, 600.0))
        cells = expand_cells(spec, _quick_base(), ("EW-MAC",), (1,))
        assert cells[0].batch == (3, 600.0)

    def test_cells_are_picklable(self):
        import pickle

        cells = expand_cells(_quick_spec(), _quick_base(), PROTOCOLS, SEEDS)
        clone = pickle.loads(pickle.dumps(cells[0]))
        assert clone == cells[0]


class TestSerialParallelEquivalence:
    # The tests below cover workers 2/4 and cache at workers=1; these are
    # the remaining corners.
    @pytest.mark.parametrize(
        "workers, use_cache", [(1, False), (2, True), (1, True)]
    )
    def test_run_plans_matches_reference(self, tmp_path, workers, use_cache):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        reference = reference_sweep(spec, base, PROTOCOLS, SEEDS)
        grid = run_grid(
            spec,
            base,
            PROTOCOLS,
            SEEDS,
            workers=workers,
            cache=ResultCache(tmp_path / "cache") if use_cache else None,
        )
        assert list(reference) == list(grid)
        assert _grid_dicts(reference) == _grid_dicts(grid)

    def test_workers4_matches_serial_per_cell_per_seed(self):
        spec, base = _quick_spec(), _quick_base()
        serial = reference_sweep(spec, base, PROTOCOLS, SEEDS)
        parallel = run_grid(spec, base, PROTOCOLS, SEEDS, workers=4)
        assert list(serial) == list(parallel)  # same insertion order
        assert _grid_dicts(serial) == _grid_dicts(parallel)

    def test_batch_mode_matches_serial(self):
        spec = _quick_spec(x_values=(0.1,), batch=lambda x, config: (3, 600.0))
        base = _quick_base(max_retries=100)
        serial = reference_sweep(spec, base, ("EW-MAC",), (1,))
        parallel = run_grid(spec, base, ("EW-MAC",), (1,), workers=2)
        assert _grid_dicts(serial) == _grid_dicts(parallel)

    def test_engine_with_one_worker_matches_serial(self):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = reference_sweep(spec, base, PROTOCOLS, (1,))
        runner = ParallelSweepRunner(workers=1)
        results = runner.run_cells(expand_cells(spec, base, PROTOCOLS, (1,)))
        assert _flat(serial) == _dicts(results)

    def test_progress_reports_every_cell_with_wall_clock(self):
        messages = []
        run_grid(
            _quick_spec(x_values=(0.4,)),
            _quick_base(),
            ("EW-MAC",),
            SEEDS,
            workers=2,
            progress=messages.append,
        )
        assert len(messages) == 2
        assert all("done in" in message for message in messages)


class TestResultCache:
    def test_warm_rerun_executes_zero_scenarios(self, tmp_path, monkeypatch):
        spec, base = _quick_spec(), _quick_base()
        with observe_sweeps() as stats:
            cold = run_grid(spec, base, PROTOCOLS, SEEDS, cache=tmp_path / "cache")
        assert stats.cache_misses == 8 and stats.cache_stores == 8

        def boom(cell, wall_budget_s):
            raise AssertionError(f"cache-hit rerun executed {cell.label}")

        monkeypatch.setattr("repro.experiments.parallel.execute_cell", boom)
        with observe_sweeps() as stats:
            warm = run_grid(spec, base, PROTOCOLS, SEEDS, cache=tmp_path / "cache")
        assert stats.cache_hits == 8 and stats.cache_misses == 0
        assert _grid_dicts(cold) == _grid_dicts(warm)

    def test_cache_traffic_is_counted_per_run(self, tmp_path):
        # One cache instance shared by two sweeps: each run counts only
        # its own gets and puts, so the totals are the real traffic.
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        cache = ResultCache(tmp_path / "cache")
        with observe_sweeps() as stats:
            for _ in range(2):
                run_grid(spec, base, ("EW-MAC",), SEEDS, cache=cache)
        assert (stats.cache_hits, stats.cache_misses, stats.cache_stores) == (2, 2, 2)
        assert stats.cache_line() == "cache: 2 hit(s), 2 miss(es), 2 store(s)"

    def test_cache_results_match_uncached(self, tmp_path):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        plain = reference_sweep(spec, base, ("EW-MAC",), (1,))
        cached = run_grid(
            spec, base, ("EW-MAC",), (1,), cache=ResultCache(tmp_path / "cache")
        )
        assert _grid_dicts(plain) == _grid_dicts(cached)

    def test_key_covers_config_batch_and_code_version(self):
        config = _quick_base()
        key = cell_key(config, None)
        assert key == cell_key(config, None)  # stable
        assert key != cell_key(config.with_(seed=2), None)
        assert key != cell_key(config, (3, 600.0))
        assert key != cell_key(config, None, version="different-code")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _quick_base(n_sensors=5, sim_time_s=5.0)
        key = cell_key(config, None)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()  # corrupt entry dropped

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = expand_cells(
            _quick_spec(x_values=(0.2,)), _quick_base(), ("EW-MAC",), (1,)
        )[0]
        result = execute_cell(cell)
        key = cell_key(cell.config, cell.batch)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert len(cache) == 1

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


# Fault-injection pool workers for TestRecovery.  They must be
# module-level (ProcessPoolExecutor pickles the callable by reference
# even with a fork context) and are installed via monkeypatch with
# MP_CONTEXT="fork" so the children see the patched module state.
_real_pool_worker = parallel_mod._pool_worker


@pytest.fixture
def fork_pool(monkeypatch):
    """Start pool children with ``fork`` so they inherit patched fakes."""
    monkeypatch.setattr(parallel_mod, "MP_CONTEXT", "fork")


def _crashing_worker(cell, wall_budget_s):
    if cell.index == 1:
        raise RuntimeError("synthetic worker crash")
    return _real_pool_worker(cell, wall_budget_s)


def _timing_out_worker(cell, wall_budget_s):
    if cell.index == 0:
        raise WallClockExceeded("synthetic cell timeout")
    return _real_pool_worker(cell, wall_budget_s)


@pytest.mark.usefixtures("fork_pool")
class TestRecovery:
    def test_crashed_worker_cell_fails_without_retry(self, monkeypatch):
        # A raise is a pure function of the cell: rerunning it could only
        # repeat it, so a pooled raise is final, like an in-process one.
        monkeypatch.setattr(parallel_mod, "_pool_worker", _crashing_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = reference_sweep(spec, base, ("S-FAMA",), (1,))
        runner = ParallelSweepRunner(workers=2)
        results = runner.run_cells(expand_cells(spec, base, PROTOCOLS, (1,)))
        assert runner.stats.requeued == []
        assert [f.cell.index for f in runner.stats.failures] == [1]
        assert "synthetic worker crash" in runner.stats.failures[0].traceback
        assert _dicts(results) == _flat(serial) + [None]

    def test_timed_out_cell_is_requeued_serially(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_pool_worker", _timing_out_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = reference_sweep(spec, base, PROTOCOLS, (1,))
        runner = ParallelSweepRunner(workers=2, cell_timeout_s=120.0)
        recovered = runner.run_cells(expand_cells(spec, base, PROTOCOLS, (1,)))
        assert [cell.index for cell in runner.stats.requeued] == [0]
        assert _flat(serial) == _dicts(recovered)


def _poisoned_execute_cell(cell, wall_budget_s):
    """Fails one specific cell every time (pool *and* serial retry)."""
    if cell.protocol == "EW-MAC" and cell.seed == 1:
        raise RuntimeError("synthetic permanent failure")
    return execute_cell(cell, wall_budget_s)


def _raise_for_ew_mac_seed_1(monkeypatch):
    """Make the EW-MAC seed-1 cell raise inside the scenario itself.

    Patched below ``execute_cell``, so every path that runs a cell hits
    it, whichever executor the sweep picks.
    """
    real = Scenario.run_steady_state

    def run_steady_state(self, *args, **kwargs):
        if self.config.protocol == "EW-MAC" and self.config.seed == 1:
            raise RuntimeError("cell blew up")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "run_steady_state", run_steady_state)


class TestPermanentFailure:
    """A cell that raises is recorded once, not retried and not sweep-fatal."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_is_attempted_once(
        self, tmp_path, monkeypatch, fork_pool, workers
    ):
        attempts = tmp_path / "attempts"

        def poisoned(cell, *args):
            if cell.protocol == "EW-MAC" and cell.seed == 1:
                # A file, so attempts made in forked pool workers count too.
                with open(attempts, "a") as handle:
                    handle.write(f"{cell.index}\n")
                raise RuntimeError("deterministic bug")
            return execute_cell(cell, *args)

        monkeypatch.setattr(parallel_mod, "execute_cell", poisoned)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        siblings = reference_sweep(spec, base, ("S-FAMA",), SEEDS)
        runner = ParallelSweepRunner(workers=workers, cell_timeout_s=120.0)
        results = runner.run_cells(expand_cells(spec, base, PROTOCOLS, SEEDS))
        assert attempts.read_text().split() == ["2"]
        assert runner.stats.requeued == []
        assert [f.error for f in runner.stats.failures] == [
            "RuntimeError: deterministic bug"
        ]
        assert _dicts(results[:2]) == _flat(siblings)
        assert results[2] is None
        assert _dicts(results[3:]) == [
            execute_cell(cell).to_dict()
            for cell in expand_cells(spec, base, ("EW-MAC",), (2,))
        ]

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_run_plans_has_one_failure_model(self, tmp_path, monkeypatch, use_cache):
        _raise_for_ew_mac_seed_1(monkeypatch)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        with observe_sweeps() as observer:
            grid = run_grid(
                spec,
                base,
                PROTOCOLS,
                SEEDS,
                workers=1,
                cache=ResultCache(tmp_path / "cache") if use_cache else None,
            )
        assert [f.error for f in observer.failures] == ["RuntimeError: cell blew up"]
        failed = observer.failures[0].cell
        assert (failed.protocol, failed.seed) == ("EW-MAC", 1)
        assert len(grid[(0.4, "EW-MAC")]) == 1
        assert len(grid[(0.4, "S-FAMA")]) == 2

    def test_serial_sweep_survives_a_crashing_cell(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        with observe_sweeps() as observer:
            grid = run_grid(spec, base, PROTOCOLS, (1, 2), workers=1)
        assert len(observer.failures) == 1
        failure = observer.failures[0]
        assert failure.cell.protocol == "EW-MAC" and failure.cell.seed == 1
        assert "RuntimeError: synthetic permanent failure" in failure.error
        assert "synthetic permanent failure" in failure.traceback
        # The failed cell's slot is simply missing; its siblings survived.
        assert len(grid[(0.4, "EW-MAC")]) == 1
        assert len(grid[(0.4, "S-FAMA")]) == 2

    def test_failed_cells_keep_an_empty_grid_entry(self, monkeypatch):
        from repro.experiments.engine import aggregate

        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        grid = run_grid(spec, base, PROTOCOLS, (1,), workers=1)
        assert grid[(0.4, "EW-MAC")] == []  # present, empty: no KeyError
        series = aggregate(
            grid, [0.4], PROTOCOLS, lambda r: r.throughput_kbps
        )
        assert series["EW-MAC"] == [0.0]  # lost cell means "no samples"
        assert series["S-FAMA"][0] > 0.0

    def test_failure_summary_reported_through_progress(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        messages = []
        runner = ParallelSweepRunner(workers=1, progress=messages.append)
        runner.run_cells(
            expand_cells(_quick_spec(x_values=(0.4,)), _quick_base(), PROTOCOLS, (1,))
        )
        assert any("failed permanently" in m for m in messages)
        assert any("1 failed cell(s)" in m for m in messages)

    def test_run_cells_marks_failed_slots_none(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        cells = expand_cells(
            _quick_spec(x_values=(0.4,)), _quick_base(), PROTOCOLS, (1,)
        )
        runner = ParallelSweepRunner(workers=1)
        results = runner.run_cells(cells)
        assert [r is None for r in results] == [
            cell.protocol == "EW-MAC" for cell in cells
        ]

    def test_pool_path_records_permanent_failures(self, monkeypatch, fork_pool):
        # Fork context: children inherit the monkeypatched module, so the
        # poisoned cell crashes in the pool, and is not retried.
        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        runner = ParallelSweepRunner(workers=2)
        results = runner.run_cells(expand_cells(spec, base, PROTOCOLS, (1,)))
        assert runner.stats.requeued == []
        assert len(runner.stats.failures) == 1
        assert results[1] is None  # the EW-MAC cell
        assert results[0] is not None


def _hanging_worker(cell, wall_budget_s):
    if cell.index == 0:
        time.sleep(30.0)  # never returns within the guard window
    return _real_pool_worker(cell, wall_budget_s)


def _dying_worker(cell, wall_budget_s):
    if cell.index == 1:
        os._exit(17)  # hard death: no exception, no result, broken pool
    return _real_pool_worker(cell, wall_budget_s)


class TestFaultRecovery:
    """The bounded recovery paths: hung pools, dead workers, retry caps."""

    def test_hung_pool_guard_requeues_unfinished_cells(self, monkeypatch, fork_pool):
        monkeypatch.setattr(parallel_mod, "_pool_worker", _hanging_worker)
        # Guard window max(2 * 0.5, 1.0) = 1 s; a quick cell takes ~20 ms.
        monkeypatch.setattr(parallel_mod, "POOL_GUARD_S", 1.0)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = reference_sweep(spec, base, PROTOCOLS, (1,))
        messages = []
        runner = ParallelSweepRunner(
            workers=2, cell_timeout_s=0.5, progress=messages.append
        )
        recovered = runner.run_cells(expand_cells(spec, base, PROTOCOLS, (1,)))
        assert [cell.index for cell in runner.stats.requeued] == [0]
        assert any("pool hung" in m for m in messages)
        assert runner.stats.failures == []
        assert _flat(serial) == _dicts(recovered)

    def test_dead_worker_breaks_pool_and_cells_recover(self, monkeypatch, fork_pool):
        monkeypatch.setattr(parallel_mod, "_pool_worker", _dying_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = reference_sweep(spec, base, PROTOCOLS, (1,))
        messages = []
        runner = ParallelSweepRunner(workers=2, progress=messages.append)
        recovered = runner.run_cells(expand_cells(spec, base, PROTOCOLS, (1,)))
        # The dying cell is requeued for sure; pool breakage may take its
        # in-flight siblings with it — recovery must replay all of them.
        assert 1 in [cell.index for cell in runner.stats.requeued]
        assert any("dead worker" in m or "crashed" in m for m in messages)
        assert runner.stats.failures == []
        assert _flat(serial) == _dicts(recovered)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recovery_attempts_are_capped(self, monkeypatch, workers):
        # One pending cell runs in-process at any ``workers``, and its
        # first attempt is budgeted there too.
        budgets = []

        def always_timing_out(cell, wall_budget_s):
            budgets.append(wall_budget_s)
            raise WallClockExceeded("still over budget")

        monkeypatch.setattr(parallel_mod, "execute_cell", always_timing_out)
        cells = expand_cells(
            _quick_spec(x_values=(0.4,)), _quick_base(), ("EW-MAC",), (1,)
        )
        messages = []
        runner = ParallelSweepRunner(
            workers=workers, cell_timeout_s=0.5, progress=messages.append
        )
        assert runner.run_cells(cells) == [None]
        assert budgets == [0.5, 1.0, 1.0, 1.0]  # the cap, not forever
        assert [cell.index for cell in runner.stats.requeued] == [0]
        assert len(runner.stats.failures) == 1
        assert "still over budget" in runner.stats.failures[0].error
        assert sum("requeueing" in m for m in messages) == 3

    def test_recovery_timeouts_are_bounded_and_reported(self, monkeypatch):
        budgets = []

        def timing_out(cell, wall_budget_s):
            budgets.append(wall_budget_s)
            raise WallClockExceeded("over budget")

        monkeypatch.setattr(parallel_mod, "execute_cell", timing_out)
        monkeypatch.setattr(parallel_mod, "MAX_SERIAL_ATTEMPTS", 2)
        cells = expand_cells(
            _quick_spec(x_values=(0.4,)), _quick_base(), ("EW-MAC",), (1,)
        )
        runner = ParallelSweepRunner(workers=1, cell_timeout_s=10.0)
        assert runner.run_cells(cells) == [None]
        # Retries get double the first attempt's budget, but stay bounded.
        assert budgets == [10.0, 20.0, 20.0]
        assert len(runner.stats.failures) == 1
        assert runner.stats.failures[0].error.startswith("WallClockExceeded")


class TestMidRunTimeout:
    """The cell is the unit of recovery: an aborted attempt leaves nothing."""

    @pytest.mark.parametrize(
        "protocol", ["EW-MAC", "S-FAMA", "ALOHA", "CS-MAC", "ROPA"]
    )
    def test_timed_out_cell_reruns_bit_identically(self, protocol):
        # A real wall deadline, not a fake: a zero budget trips at the first
        # check, 4,096 events into a ~6,000-event run.  The aborted attempt
        # has drawn module-global frame and request uids and left a
        # half-run scenario behind; the rerun must match the reference.
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base(sim_time_s=200.0)
        cell = expand_cells(spec, base, (protocol,), (1,))[0]
        reference = reference_sweep(spec, base, (protocol,), (1,))
        with pytest.raises(WallClockExceeded) as info:
            execute_cell(cell, wall_budget_s=0.0)
        stopped = re.search(r"at t=([\d.]+)s \((\d+) events\)", str(info.value))
        assert stopped is not None
        assert int(stopped.group(2)) == 4096
        assert float(stopped.group(1)) < base.warmup_s + base.sim_time_s
        rerun = execute_cell(cell)
        assert rerun.perf.events > 4096
        assert rerun.to_dict() == reference[(0.4, protocol)][0].to_dict()

    def test_timed_out_batch_cell_stops_inside_its_drain(self):
        # A batch cell drains in 1 s windows of under 100 events each; the
        # deadline is still checked every 4,096 events of the whole
        # attempt, so the budget stops it partway through the drain.
        spec = _quick_spec(x_values=(0.4,), batch=lambda x, config: (40, 1800.0))
        base = _quick_base(max_retries=100)
        cell = expand_cells(spec, base, ("S-FAMA",), (1,))[0]
        reference = reference_sweep(spec, base, ("S-FAMA",), (1,))
        with pytest.raises(WallClockExceeded) as info:
            execute_cell(cell, wall_budget_s=0.0)
        stopped = re.search(r"at t=([\d.]+)s \((\d+) events\)", str(info.value))
        assert stopped is not None
        assert int(stopped.group(2)) == 4096
        assert float(stopped.group(1)) > base.warmup_s + 1.0
        rerun = execute_cell(cell)
        assert rerun.to_dict() == reference[(0.4, "S-FAMA")][0].to_dict()
        assert rerun.execution.drain_time_s > float(stopped.group(1))


class TestWorkItem:
    def test_label(self):
        cell = SweepCell(0, 0.5, "EW-MAC", 3, _quick_base())
        assert cell.label == "EW-MAC x=0.5 seed=3"
