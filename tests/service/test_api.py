"""REST front-end + worker pool against an in-process server.

The engine call is replaced by tiny injected runners (instant results,
deliberate crashes) so these tests exercise the HTTP/store/worker wiring
without running any simulation.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.engine import FigureData, SweepRequest, SweepResult, request_key
from repro.service.api import make_server
from repro.service.store import JobStore
from repro.service.worker import WorkerPool

REQUEST_BODY = {
    "target": "fig6",
    "quick": True,
    "seeds": [1],
    "overrides": {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0},
}


def _figure(request: SweepRequest) -> FigureData:
    return FigureData(
        figure_id=request.target,
        title="stub",
        x_label="x",
        y_label="y",
        x_values=[1.0],
        series={"EW-MAC": [0.5]},
    )


def _instant_runner(request: SweepRequest, progress) -> SweepResult:
    progress("cell 1/1")
    return SweepResult(
        request=request,
        figure=_figure(request),
        summary_lines=["ok"],
        cells_total=1,
        cache_misses=1,
        cache_stores=1,
    )


def _crashing_runner(request: SweepRequest, progress) -> SweepResult:
    raise RuntimeError("worker exploded mid-sweep")


def _partial_failure_runner(request: SweepRequest, progress) -> SweepResult:
    return SweepResult(
        request=request,
        figure=_figure(request),
        failures=[{"cell": "x=0.2/seed=1", "error": "TimeoutError: cell budget"}],
        cells_total=12,
        cache_misses=12,
        cache_stores=11,
    )


@pytest.fixture
def service(tmp_path):
    """(base_url, store, pool) with a started server; runner set per-test."""
    store = JobStore(tmp_path / "jobs.sqlite")
    holder = {"runner": _instant_runner}

    def dispatch(request, progress):
        return holder["runner"](request, progress)

    # A 30 s fallback poll: every prompt hand-off these tests see comes
    # from the store's change signal, not from a timer.
    pool = WorkerPool(store, n_workers=1, runner=dispatch, poll_interval_s=30.0)
    server = make_server(store, pool, port=0)
    pool.start()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server.url, store, holder
    finally:
        server.shutdown()
        server.server_close()
        pool.stop()
        store.close()
        thread.join(timeout=5)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url, payload):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait_terminal(base, key, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, payload = _get(f"{base}/jobs/{key}?wait=1")
        if payload["job"]["state"] in ("done", "failed", "quarantined"):
            return payload["job"]
    raise AssertionError(f"job {key} never finished")


def _until(predicate, message, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.005)


def test_healthz_and_targets(service):
    base, _, _ = service
    status, health = _get(f"{base}/healthz")
    assert status == 200
    assert health["ok"] is True
    assert health["workers_alive"] is True
    assert health["workers"] == {"inflight": [], "completed": 0, "lease_losses": 0}
    assert set(health["jobs"]) == {
        "queued",
        "running",
        "done",
        "failed",
        "quarantined",
    }
    status, targets = _get(f"{base}/targets")
    assert status == 200
    assert "fig6" in targets["targets"]
    assert "chaos" in targets["targets"]


def test_submit_run_fetch_roundtrip(service):
    base, _, _ = service
    status, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    assert status == 202
    assert submitted["deduped"] is False
    key = submitted["job"]["key"]
    assert key == request_key(SweepRequest.from_dict(REQUEST_BODY))

    job = _wait_terminal(base, key)
    assert job["state"] == "done"
    assert job["attempts"] == 1

    status, result = _get(f"{base}/jobs/{key}/result")
    assert status == 200
    assert result["result"]["figure"]["figure_id"] == "fig6"
    assert result["result"]["summary_lines"] == ["ok"]

    status, listing = _get(f"{base}/jobs")
    assert status == 200
    assert [entry["key"] for entry in listing["jobs"]] == [key]


def test_identical_submission_dedupes_without_rerun(service):
    base, _, _ = service
    _, first = _post(f"{base}/jobs", REQUEST_BODY)
    key = first["job"]["key"]
    _wait_terminal(base, key)

    status, second = _post(f"{base}/jobs", REQUEST_BODY)
    assert status == 200  # not 202: nothing new was queued
    assert second["deduped"] is True
    assert second["job"]["state"] == "done"
    assert second["job"]["attempts"] == 1

    # Same sweep, different aggregation target: distinct job.
    other = dict(REQUEST_BODY, target="fig11")
    status, third = _post(f"{base}/jobs", other)
    assert status == 202
    assert third["job"]["key"] != key


def test_bad_requests_are_400(service):
    base, _, _ = service
    for payload in (
        {"target": "not-a-figure"},
        {"target": "fig6", "seeds": []},
        {"target": "fig6", "seeds": ["one"]},
        {"target": "fig6", "quick": "yes"},
        {"target": "fig6", "unknown_field": 1},
        {"target": "fig6", "overrides": {"n": [1, 2]}},
    ):
        status, body = _post(f"{base}/jobs", payload)
        assert status == 400, payload
        assert "error" in body
    status, _ = _get(f"{base}/jobs/{'0' * 64}")
    assert status == 404
    status, _ = _get(f"{base}/nope")
    assert status == 404
    status, _ = _post(f"{base}/shutdown", {})
    assert status == 403  # allow_shutdown off by default


def test_non_finite_override_is_400(service):
    # JSON Infinity/NaN parse to floats; a job with an endless window would
    # wedge a worker while its heartbeat kept renewing the lease.
    base, _, _ = service
    for value in (float("inf"), float("nan")):
        payload = {"target": "fig6", "quick": True, "seeds": [1],
                   "overrides": {"sim_time_s": value}}
        status, body = _post(f"{base}/jobs", payload)
        assert status == 400, value
        assert "sim_time_s" in body["error"]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_sensors": 6.5}, "n_sensors must be an int"),
        ({"faults": "x"}, "faults takes no override"),
        ({"mobility": "no"}, "mobility must be a bool"),
    ],
)
def test_override_of_the_wrong_type_is_400(service, overrides, message):
    # Each used to be accepted (202) and then fail every cell, or run
    # with mobility on under a job key of its own.
    base, store, _ = service
    payload = {"target": "fig6", "quick": True, "seeds": [1], "overrides": overrides}
    status, body = _post(f"{base}/jobs", payload)
    assert status == 400, overrides
    assert message in body["error"]
    assert sum(store.counts().values()) == 0


def test_worker_crash_surfaces_error_via_api(service):
    base, _, holder = service
    holder["runner"] = _crashing_runner
    _, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    key = submitted["job"]["key"]
    job = _wait_terminal(base, key)
    assert job["state"] == "failed"
    assert "worker exploded mid-sweep" in job["error"]

    status, body = _get(f"{base}/jobs/{key}/result")
    assert status == 500
    assert "worker exploded mid-sweep" in body["error"]

    # Resubmission is the retry button: requeued with a clean slate
    # (fresh retry budget, old error and partial result cleared).
    holder["runner"] = _instant_runner
    status, retried = _post(f"{base}/jobs", REQUEST_BODY)
    assert status == 202
    assert retried["deduped"] is False
    job = _wait_terminal(base, key)
    assert job["state"] == "done"
    assert job["attempts"] == 1


def test_permanent_cell_failures_fail_the_job(service):
    base, _, holder = service
    holder["runner"] = _partial_failure_runner
    _, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    key = submitted["job"]["key"]
    job = _wait_terminal(base, key)
    assert job["state"] == "failed"
    assert "x=0.2/seed=1" in job["error"]
    # The partial result is preserved for inspection on the failure body.
    status, body = _get(f"{base}/jobs/{key}/result")
    assert status == 500
    assert body["result"]["cells_total"] == 12


def test_result_conflict_while_queued(tmp_path):
    # No worker pool: the job can never leave 'queued'.
    store = JobStore(tmp_path / "jobs.sqlite")
    server = make_server(store, pool=None, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        base = server.url
        status, submitted = _post(f"{base}/jobs", REQUEST_BODY)
        assert status == 202
        key = submitted["job"]["key"]
        status, body = _get(f"{base}/jobs/{key}/result")
        assert status == 409
        status, health = _get(f"{base}/healthz")
        assert health["workers_alive"] is False
        assert health["jobs"]["queued"] == 1
    finally:
        server.shutdown()
        server.server_close()
        store.close()
        thread.join(timeout=5)


def test_sse_replays_progress_of_finished_job(service):
    base, _, _ = service
    _, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    key = submitted["job"]["key"]
    _wait_terminal(base, key)
    with urllib.request.urlopen(f"{base}/jobs/{key}/events", timeout=10) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        body = response.read().decode("utf-8")
    assert "data: cell 1/1" in body
    assert "data: done" in body
    assert "event: end" in body


def test_healthz_reports_inflight_and_completed_jobs(service):
    base, _, holder = service
    release = threading.Event()

    def gated(request, progress):
        assert release.wait(timeout=10.0)
        return _instant_runner(request, progress)

    holder["runner"] = gated
    _, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    key = submitted["job"]["key"]
    try:
        _until(
            lambda: _get(f"{base}/healthz")[1]["workers"]["inflight"] == [key],
            "job never showed as in flight",
        )
    finally:
        release.set()
    _wait_terminal(base, key)
    _, health = _get(f"{base}/healthz")
    assert health["workers"] == {"inflight": [], "completed": 1, "lease_losses": 0}


@pytest.mark.parametrize("wait", ["nan", "inf", "-inf", "-1", "soon"])
def test_bad_wait_values_are_400(service, wait):
    base, _, _ = service
    _, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    key = submitted["job"]["key"]
    status, body = _get(f"{base}/jobs/{key}?wait={wait}")
    assert status == 400
    assert "bad wait value" in body["error"]


def _gated_service_job(base, holder):
    """Submit a job whose runner emits one line, then blocks on the gate."""
    gate = threading.Event()

    def gated(request, progress):
        progress("cell 1/2")
        assert gate.wait(timeout=10.0)
        progress("cell 2/2")
        return _instant_runner(request, progress)

    holder["runner"] = gated
    _, submitted = _post(f"{base}/jobs", REQUEST_BODY)
    return submitted["job"]["key"], gate


def test_sse_streams_progress_of_running_job_live(service):
    base, store, holder = service
    key, gate = _gated_service_job(base, holder)
    try:
        with urllib.request.urlopen(f"{base}/jobs/{key}/events", timeout=10) as response:
            assert response.readline() == b"data: cell 1/2\n"
            assert store.get(key).state == "running"  # streamed before it finished
            gate.set()
            rest = response.read().decode("utf-8")
    finally:
        gate.set()
    assert "data: cell 2/2" in rest
    assert rest.rstrip().endswith("event: end\ndata: done")


def test_long_poll_returns_promptly_when_job_settles(service):
    base, store, holder = service
    key, gate = _gated_service_job(base, holder)
    answered = {}

    def long_poll():
        answered["body"] = _get(f"{base}/jobs/{key}?wait=10")[1]
        answered["at"] = time.monotonic()

    poller = threading.Thread(target=long_poll)
    try:
        _until(lambda: store.get(key).state == "running", "job never started")
        poller.start()
        time.sleep(0.2)  # the long-poll is now parked on a running job
        assert "at" not in answered
        gate.set()
        _until(lambda: store.get(key).state == "done", "job never settled")
        settled = time.monotonic()
        poller.join(timeout=10.0)
        assert not poller.is_alive()
    finally:
        gate.set()
    assert answered["body"]["job"]["state"] == "done"
    assert answered["at"] - settled < 1.0
