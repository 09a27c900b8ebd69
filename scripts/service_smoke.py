"""End-to-end smoke of ``repro-uasn serve`` over real HTTP.

Boots the service as a subprocess, submits a quick Fig. 6 sweep and a
quick ablation (``abl-aloha``: the service serves every target of the
engine's one registry) over HTTP, polls each to completion, and asserts:

1. each HTTP-served result is bit-identical to a direct
   ``engine.run_request`` call in this process;
2. an identical second submission is a dedupe hit — the job is served
   from the store with no second run (``attempts`` stays 1);
3. ``POST /shutdown`` stops the service cleanly (exit code 0).

The scratch directory holding the job store and the cache is removed on
exit.

Run from the repo root (CI's service-smoke job, or locally)::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

#: Small enough to finish in seconds, big enough to exercise the sweep.
REQUEST = {
    "target": "fig6",
    "quick": True,
    "seeds": [1],
    "overrides": {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0},
}

#: The same tiny request for an ablation target.
ABLATION_REQUEST = dict(REQUEST, target="abl-aloha")

BOOT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 300.0


def _http(method: str, url: str, payload=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait_for_url(proc: subprocess.Popen) -> str:
    """Read the service's ``listening on <url>`` ready line."""
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"service exited before becoming ready (rc={proc.poll()})"
            )
        print(f"  [serve] {line.rstrip()}")
        if line.startswith("listening on "):
            return line.split("listening on ", 1)[1].strip()
    raise SystemExit("service never printed its ready line")


def _run_job(base: str, payload) -> None:
    """Submit a fresh job, wait for it, and check it against a direct run."""
    status, submitted = _http("POST", f"{base}/jobs", payload)
    assert status == 202, f"first submit should queue (202), got {status}"
    assert submitted["deduped"] is False
    key = submitted["job"]["key"]
    print(f"submitted {payload['target']} job {key[:16]}…")

    deadline = time.monotonic() + JOB_TIMEOUT_S
    job = submitted["job"]
    while job["state"] not in ("done", "failed"):
        if time.monotonic() > deadline:
            raise SystemExit(f"job stuck in state {job['state']!r}")
        status, polled = _http("GET", f"{base}/jobs/{key}?wait=10")
        job = polled["job"]
    assert job["state"] == "done", f"job failed: {job['error']}"
    assert job["attempts"] == 1
    print(f"job done after {job['finished_at'] - job['started_at']:.1f}s")

    status, served = _http("GET", f"{base}/jobs/{key}/result")
    assert status == 200, f"result fetch: {status}"

    # The HTTP-served figure must be bit-identical to a direct engine
    # run of the same request (fresh compute: cache disabled here).
    from repro.experiments.engine import SweepRequest, request_key, run_request

    request = SweepRequest.from_dict(payload)
    assert request_key(request) == key, "request_key drifted from service"
    direct = run_request(request, workers=2, cache=None)
    served_doc = json.dumps(served["result"]["figure"], sort_keys=True)
    direct_doc = json.dumps(direct.to_dict()["figure"], sort_keys=True)
    assert served_doc == direct_doc, "HTTP result differs from direct engine run"
    print(f"served {payload['target']} figure bit-identical to direct engine run")


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    env.setdefault("REPRO_CACHE_DIR", str(workdir / "cache"))

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--port",
            "0",
            "--store",
            str(workdir / "jobs.sqlite"),
            "--allow-shutdown",
            "--workers",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(workdir),
    )
    try:
        base = _wait_for_url(proc)
        status, health = _http("GET", f"{base}/healthz")
        assert status == 200 and health["ok"], f"healthz: {status} {health}"
        print(f"healthz ok, workers alive: {health['workers_alive']}")

        _run_job(base, REQUEST)
        _run_job(base, ABLATION_REQUEST)

        # Identical resubmission: dedupe hit, no re-run scheduled.
        status, resubmitted = _http("POST", f"{base}/jobs", REQUEST)
        assert status == 200, f"dedupe submit should 200, got {status}"
        assert resubmitted["deduped"] is True, "resubmission was not deduped"
        assert resubmitted["job"]["attempts"] == 1, "dedupe hit re-ran the job"
        assert resubmitted["job"]["state"] == "done"
        print("identical resubmission deduped (no re-run)")

        status, _ = _http("POST", f"{base}/shutdown")
        assert status == 202, f"shutdown: {status}"
        rc = proc.wait(timeout=30)
        assert rc == 0, f"service exited {rc}"
        print("service shut down cleanly")
        print("SERVICE SMOKE PASSED")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
