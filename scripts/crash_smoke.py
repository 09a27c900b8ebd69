"""Crash-recovery smoke: kill the service mid-job, restart, recover.

Exercises the leased-claim fault path end to end, deterministically:

1. Boot the service with ``--chaos-kill-after 2 --lease-s 2`` and its
   result cache in the smoke's temp workdir: the process SIGKILLs
   **itself** on the second progress line of the first job — no cleanup,
   no settle, a leased ``running`` row left behind.  Each progress line
   is one finished cell, written after the cell is stored in the cache,
   so exactly two cells survive the kill.
2. Submit a quick Fig. 6 sweep and wait for the service to die mid-job.
   Assert the store still shows the job ``running`` under the dead
   process's lease (nothing reaped it yet).
3. Restart the service on the same store *without* chaos.  The expired
   lease is reaped (on open or by the heartbeat loop), the job requeues
   with its crash recorded in the error chain, and a worker re-runs it.
4. Assert the recovered job is ``done`` on attempt 2, the error chain
   names the expired lease, the two cells finished before the kill are
   cache hits (the cell is the unit of recovery), and the served figure
   is bit-identical to a direct ``engine.run_request`` call in this
   process.

Run from the repo root (CI's crash-smoke job, or locally)::

    PYTHONPATH=src python scripts/crash_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

#: Small enough to finish in seconds, big enough to emit several
#: per-cell progress lines (the chaos hook fires on line 2).
REQUEST = {
    "target": "fig6",
    "quick": True,
    "seeds": [1],
    "overrides": {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0},
}

BOOT_TIMEOUT_S = 30.0
CRASH_TIMEOUT_S = 120.0
RECOVERY_TIMEOUT_S = 300.0
LEASE_S = 2.0


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


def _boot(workdir: Path, env: dict, chaos: bool) -> subprocess.Popen:
    argv = [
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
        "1",
        "--lease-s",
        str(LEASE_S),
    ]
    if chaos:
        argv += ["--chaos-kill-after", "2"]
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(workdir),
    )


def _wait_for_url(proc: subprocess.Popen) -> str:
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


def _job_row(store_path: Path, key: str) -> sqlite3.Row:
    conn = sqlite3.connect(str(store_path))
    conn.row_factory = sqlite3.Row
    try:
        return conn.execute(
            "SELECT state, owner, attempts, error FROM jobs WHERE key = ?", (key,)
        ).fetchone()
    finally:
        conn.close()


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    workdir = Path(tempfile.mkdtemp(prefix="repro-crash-smoke-"))
    store_path = workdir / "jobs.sqlite"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")

    # ---- phase 1: the service kills itself mid-job -------------------
    victim = _boot(workdir, env, chaos=True)
    survivor = None
    try:
        base = _wait_for_url(victim)
        status, submitted = _http("POST", f"{base}/jobs", REQUEST)
        assert status == 202, f"submit should queue (202), got {status}"
        key = submitted["job"]["key"]
        print(f"submitted job {key[:16]}…, waiting for the chaos kill")

        rc = victim.wait(timeout=CRASH_TIMEOUT_S)
        assert rc == -signal.SIGKILL, f"expected SIGKILL exit, got rc={rc}"
        print("service SIGKILLed itself mid-job (as armed)")

        row = _job_row(store_path, key)
        assert row is not None, "job row vanished from the store"
        assert row["state"] == "running", f"expected leased row, got {row['state']}"
        assert row["owner"], "running row lost its owner"
        assert row["attempts"] == 1
        print(f"store shows the orphaned lease (owner={row['owner']})")

        # ---- phase 2: a fresh service recovers the job ---------------
        survivor = _boot(workdir, env, chaos=False)
        base = _wait_for_url(survivor)
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        job = {"state": "running"}
        while job["state"] not in ("done", "failed", "quarantined"):
            if time.monotonic() > deadline:
                raise SystemExit(f"job stuck in state {job['state']!r}")
            status, polled = _http("GET", f"{base}/jobs/{key}?wait=10")
            job = polled["job"]
        assert job["state"] == "done", f"recovery failed: {job['error']}"
        assert job["attempts"] == 2, f"expected attempt 2, got {job['attempts']}"
        assert "lease expired" in (job["error"] or ""), (
            "crash not recorded in the error chain"
        )
        print("job recovered on attempt 2, crash preserved in error chain")

        status, served = _http("GET", f"{base}/jobs/{key}/result")
        assert status == 200, f"result fetch: {status}"
        result = served["result"]
        hits, misses = result["cache_hits"], result["cache_misses"]
        assert (hits, misses) == (2, result["cells_total"] - 2), (
            f"expected the 2 cells finished before the kill as cache hits, "
            f"got {hits} hit(s), {misses} miss(es) of {result['cells_total']}"
        )
        print(f"attempt 2 reused the {hits} cells finished before the kill")

        from repro.experiments.engine import SweepRequest, request_key, run_request

        request = SweepRequest.from_dict(REQUEST)
        assert request_key(request) == key, "request_key drifted from service"
        direct = run_request(request, workers=1, cache=None)
        served_doc = json.dumps(result["figure"], sort_keys=True)
        direct_doc = json.dumps(direct.to_dict()["figure"], sort_keys=True)
        assert served_doc == direct_doc, "recovered result differs from direct run"
        print("recovered figure bit-identical to direct engine run")

        status, _ = _http("POST", f"{base}/shutdown")
        assert status == 202, f"shutdown: {status}"
        rc = survivor.wait(timeout=30)
        assert rc == 0, f"service exited {rc}"
        print("CRASH SMOKE PASSED")
        return 0
    finally:
        for proc in (victim, survivor):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
