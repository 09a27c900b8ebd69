"""Worker pool liveness: heartbeats, graceful drain, chaos injection.

Runners are injected (no simulation, save one tiny engine run) and
leases are short, so every scenario here is deterministic and fast: a
live pool keeps its lease fresh through long jobs, a draining pool
releases unfinished work with the attempt refunded, a chaos-wounded
worker turns into a clean failure without wedging the queue, and a
figure the engine refuses fails its job with the engine's message.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.experiments.engine import (
    EngineError,
    FigureData,
    SweepRequest,
    SweepResult,
    request_key,
)
from repro.service.store import DONE, FAILED, QUEUED, RUNNING, JobStore
from repro.service.worker import WorkerPool

REQUEST_BODY = {
    "target": "fig6",
    "quick": True,
    "seeds": [1],
    "overrides": {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0},
}


def _result(request: SweepRequest) -> SweepResult:
    figure = FigureData(
        figure_id=request.target,
        title="stub",
        x_label="x",
        y_label="y",
        x_values=[1.0],
        series={"EW-MAC": [0.5]},
    )
    return SweepResult(
        request=request,
        figure=figure,
        summary_lines=["ok"],
        cells_total=1,
        cache_misses=1,
        cache_stores=1,
    )


def _submit(store: JobStore) -> str:
    request = SweepRequest.from_dict(REQUEST_BODY)
    key = request_key(request)
    store.submit(key, request.to_dict())
    return key


def _wait(predicate, timeout_s=10.0, message="condition never held"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message)


def test_heartbeat_keeps_long_job_leased(tmp_path):
    """A job several leases long survives because the pool heartbeats it."""
    store = JobStore(tmp_path / "jobs.sqlite", lease_s=0.2)
    release = threading.Event()

    def slow_runner(request, progress):
        progress("working")
        assert release.wait(timeout=10.0)
        return _result(request)

    pool = WorkerPool(store, runner=slow_runner, poll_interval_s=0.01)
    key = _submit(store)
    pool.start()
    try:
        _wait(lambda: store.get(key).state == RUNNING, message="never claimed")
        time.sleep(0.6)  # three lease durations
        record = store.get(key)
        assert record.state == RUNNING
        assert record.lease_expires_at > time.time()  # heartbeat renewed it
        assert store.expire_leases() == 0
        release.set()
        _wait(lambda: store.get(key).state == DONE, message="never finished")
        assert pool.completed == 1
        assert pool.lease_losses == 0
    finally:
        release.set()
        pool.stop()
        store.close()


def test_stop_releases_unfinished_job_with_attempt_refunded(tmp_path):
    store = JobStore(tmp_path / "jobs.sqlite", lease_s=60.0)
    release = threading.Event()

    def stuck_runner(request, progress):
        release.wait(timeout=30.0)
        return _result(request)

    pool = WorkerPool(store, runner=stuck_runner, poll_interval_s=0.01)
    key = _submit(store)
    pool.start()
    try:
        _wait(lambda: store.get(key).state == RUNNING, message="never claimed")
        pool.stop(timeout_s=0.2)  # drain: worker is mid-job, give up fast
        record = store.get(key)
        assert record.state == QUEUED
        assert record.attempts == 0  # refunded — drain is not a crash
        assert record.owner is None
        # The zombie thread's late finish is rejected by the owner guard.
        release.set()
        time.sleep(0.2)
        assert store.get(key).state == QUEUED
        assert pool.lease_losses == 1
    finally:
        release.set()
        store.close()


def test_chaos_hook_exception_fails_job_cleanly(tmp_path):
    """A hook that raises mid-progress turns into a normal job failure."""
    store = JobStore(tmp_path / "jobs.sqlite")

    def runner(request, progress):
        progress("cell 1/2")
        progress("cell 2/2")
        return _result(request)

    def wound(key, lines):
        if lines >= 2:
            raise EngineError("chaos: injected fault")

    pool = WorkerPool(store, runner=runner, poll_interval_s=0.01, chaos_hook=wound)
    key = _submit(store)
    pool.start()
    try:
        _wait(lambda: store.get(key).state == FAILED, message="never failed")
        record = store.get(key)
        assert "chaos: injected fault" in record.error
        assert pool.completed == 1
    finally:
        pool.stop()
        store.close()


def test_relative_figure_with_zero_baseline_fails_the_job(tmp_path):
    """The engine's zero-baseline refusal is the job's error, not a 0 figure."""
    store = JobStore(tmp_path / "jobs.sqlite")
    pool = WorkerPool(store, run_kwargs={"workers": 1}, poll_interval_s=0.01)
    # Too short a window for any delivery: every S-FAMA efficiency is 0.
    request = SweepRequest.from_dict(dict(REQUEST_BODY, target="fig11"))
    key = request_key(request)
    store.submit(key, request.to_dict())
    pool.start()
    try:
        _wait(lambda: store.get(key).state == FAILED, timeout_s=60.0,
              message="never failed")
        error = store.get(key).error
        assert "ValueError: baseline protocol 'S-FAMA' averages 0.0 at x=0.2" in error
    finally:
        pool.stop()
        store.close()


def test_lost_lease_settle_is_not_counted_as_completed(tmp_path):
    """A worker that outlives its lease cannot clobber the requeued job."""
    store = JobStore(tmp_path / "jobs.sqlite", lease_s=60.0)
    claimed = threading.Event()
    release = threading.Event()

    def slow_runner(request, progress):
        claimed.set()
        assert release.wait(timeout=10.0)
        return _result(request)

    pool = WorkerPool(store, runner=slow_runner, poll_interval_s=0.01)
    key = _submit(store)
    pool.start()
    try:
        assert claimed.wait(timeout=10.0)
        # Simulate a lease takeover: the job is released and immediately
        # re-leased by another worker while ours is still running it.
        store.release(key)
        takeover = store.claim(owner="interloper", lease_s=60.0)
        assert takeover is not None and takeover.owner == "interloper"
        release.set()
        _wait(lambda: pool.lease_losses == 1, message="guard never tripped")
        record = store.get(key)
        assert record.state == RUNNING  # untouched by the zombie
        assert record.owner == "interloper"
        assert pool.completed == 0
    finally:
        release.set()
        pool.stop()
        store.close()


def test_two_pools_share_store_without_double_running(tmp_path):
    """Distinct owners: every job settles exactly once across two pools."""
    store_a = JobStore(tmp_path / "jobs.sqlite", lease_s=5.0)
    store_b = JobStore(tmp_path / "jobs.sqlite", lease_s=5.0, requeue=False)
    assert store_a.owner != store_b.owner
    executed = []
    lock = threading.Lock()

    def runner(request, progress):
        with lock:
            executed.append(request.target)
        return _result(request)

    pool_a = WorkerPool(store_a, runner=runner, poll_interval_s=0.01)
    pool_b = WorkerPool(store_b, runner=runner, poll_interval_s=0.01)
    keys = []
    for target in ("fig6", "fig7", "fig8", "fig11"):
        request = SweepRequest.from_dict(dict(REQUEST_BODY, target=target))
        key = request_key(request)
        store_a.submit(key, request.to_dict())
        keys.append(key)
    pool_a.start()
    pool_b.start()
    try:
        _wait(
            lambda: all(store_a.get(k).state == DONE for k in keys),
            message="jobs never drained",
        )
        assert sorted(executed) == ["fig11", "fig6", "fig7", "fig8"]
        assert pool_a.completed + pool_b.completed == 4
    finally:
        pool_a.stop()
        pool_b.stop()
        store_a.close()
        store_b.close()


@pytest.mark.parametrize("n_workers", [1, 3])
def test_pool_drains_queue(tmp_path, n_workers):
    store = JobStore(tmp_path / "jobs.sqlite")

    def runner(request, progress):
        progress("running")
        return _result(request)

    pool = WorkerPool(store, n_workers=n_workers, runner=runner, poll_interval_s=0.01)
    keys = []
    for target in ("fig6", "fig7", "fig8"):
        request = SweepRequest.from_dict(dict(REQUEST_BODY, target=target))
        key = request_key(request)
        store.submit(key, request.to_dict())
        keys.append(key)
    pool.start()
    try:
        _wait(
            lambda: all(store.get(k).state == DONE for k in keys),
            message="queue never drained",
        )
        assert pool.completed == 3
    finally:
        pool.stop()
        store.close()


class CountingStore(JobStore):
    """A store that counts :meth:`claim` calls (empty ones included)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.claims = 0
        self._claims_lock = threading.Lock()

    def claim(self, *args, **kwargs):
        with self._claims_lock:
            self.claims += 1
        return super().claim(*args, **kwargs)


def _instant(request, progress):
    return _result(request)


def test_idle_pool_wakes_on_submit_not_on_poll(tmp_path):
    """With a 30 s poll, only the store's change signal can claim in time."""
    store = CountingStore(tmp_path / "jobs.sqlite")
    pool = WorkerPool(store, runner=_instant, poll_interval_s=30.0)
    pool.start()
    try:
        _wait(lambda: store.claims >= 1, message="worker never tried a claim")
        time.sleep(0.1)  # let the worker settle into its idle wait
        key = _submit(store)
        _wait(lambda: store.get(key).state == DONE, timeout_s=1.0,
              message="idle worker did not wake for the submission")
    finally:
        pool.stop()
        store.close()


def test_sibling_store_submission_is_claimed_by_fallback_poll(tmp_path):
    """A second store on the same file raises no signal; the poll finds it."""
    store = JobStore(tmp_path / "jobs.sqlite")
    sibling = JobStore(tmp_path / "jobs.sqlite", requeue=False)
    pool = WorkerPool(store, runner=_instant, poll_interval_s=0.05)
    pool.start()
    try:
        time.sleep(0.1)
        key = _submit(sibling)
        _wait(lambda: sibling.get(key).state == DONE, timeout_s=5.0,
              message="sibling's job never claimed")
        assert pool.completed == 1
    finally:
        pool.stop()
        sibling.close()
        store.close()


def test_stop_wakes_idle_workers_at_once(tmp_path):
    store = JobStore(tmp_path / "jobs.sqlite")
    pool = WorkerPool(store, n_workers=2, runner=_instant, poll_interval_s=30.0)
    pool.start()
    try:
        time.sleep(0.1)  # both workers idle in their 30 s wait
        started = time.monotonic()
        pool.stop()
        assert time.monotonic() - started < 1.0
        assert not pool.alive
    finally:
        store.close()


def test_progress_lines_do_not_wake_idle_workers(tmp_path):
    """Only claimable changes wake workers: 50 progress lines, no empty claims."""
    store = CountingStore(tmp_path / "jobs.sqlite")
    streamed = threading.Event()

    def chatty_runner(request, progress):
        for index in range(50):
            progress(f"line {index}")
        streamed.set()
        return _result(request)

    pool = WorkerPool(store, n_workers=2, runner=chatty_runner, poll_interval_s=30.0)
    pool.start()
    try:
        _wait(lambda: store.claims >= 2, message="workers never tried a claim")
        time.sleep(0.1)
        key = _submit(store)
        assert streamed.wait(timeout=10.0)
        _wait(lambda: store.get(key).state == DONE, message="never finished")
        time.sleep(0.2)
        # Two startup claims, two after the submission wakes both workers,
        # one by the finishing worker before it idles again.
        assert store.claims <= 5
    finally:
        pool.stop()
        store.close()


def test_concurrent_submitters_lose_no_wakeup(tmp_path):
    """8 workers, 4 submitting threads, tiny switch interval, 30 s poll.

    A lost wake-up would strand a job until the 30 s fallback poll and
    blow the 15 s budget; a double claim would run a job twice.
    """
    store = JobStore(tmp_path / "jobs.sqlite")
    executed = []
    lock = threading.Lock()

    def runner(request, progress):
        progress("running")
        with lock:
            executed.append(request.seeds[0])
        return _result(request)

    pool = WorkerPool(store, n_workers=8, runner=runner, poll_interval_s=30.0)
    keys = []

    def submit_range(first):
        for seed in range(first, first + 10):
            request = SweepRequest.from_dict(dict(REQUEST_BODY, seeds=[seed]))
            key = request_key(request)
            with lock:
                keys.append(key)
            store.submit(key, request.to_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool.start()
    try:
        submitters = [
            threading.Thread(target=submit_range, args=(first,))
            for first in (1, 11, 21, 31)
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        _wait(
            lambda: all(store.get(k).state == DONE for k in keys),
            timeout_s=15.0,
            message="a job was stranded: lost wake-up",
        )
        assert sorted(executed) == list(range(1, 41))
    finally:
        sys.setswitchinterval(interval)
        pool.stop()
        store.close()
    # A worker counts a job after the store already reads DONE; stop()
    # joined every worker, so each settle has finished counting by now.
    assert pool.completed == 40
    assert pool.lease_losses == 0
