"""Service workloads: the real ``repro-uasn serve`` process, driven over HTTP.

One closed-loop client (this process) talks to one ``serve`` process with
CLI defaults: one service worker, ``--workers 1``, result cache on, store
and cache in a fresh directory.  Every job is a tiny quick Fig. 6 sweep, so
latency comes from request keying, the sqlite store, the worker's claim
polling, long-polling and HTTP rather than from simulation.

* ``service-fresh``: each operation submits a new job (a new seed), waits
  for it with ``GET /jobs/<key>?wait=10`` and fetches its result.
* ``service-dedupe``: eight jobs are run first; each operation resubmits
  one of them (a dedupe hit served from the store) and fetches its result.

Import this module after :func:`measure.require_program`.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
import traceback
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from cells import check_figure
from measure import (
    HERE,
    SRC,
    Metric,
    RunResult,
    digest,
    iter_inputs,
    layer_metrics,
    percentile,
    scratch_dir,
    sim_seed,
    tail_percentile,
)
from repro.experiments import engine
from tracer import RESET_PATH, calibrate_span_cost

clock = time.perf_counter

#: A job small enough that the service stack, not simulation, dominates.
OVERRIDES = {"n_sensors": 6, "sim_time_s": 3.0, "warmup_s": 2.0}
#: Jobs run before the dedupe workload resubmits them.
DEDUPE_POOL = 8
#: Client think time bounds.  Without think time the client phase-locks to
#: the worker's 0.1 s claim poll and the median jumps from run to run.
FRESH_THINK_S = 0.1
DEDUPE_THINK_S = 0.02
#: Warm-up job seed offset, beyond any measured operation's.
WARMUP_OP = 999
#: Cold ``serve`` boots per run, the measured server's included.
BOOTS = 9
BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 30.0
TERMINAL = ("done", "failed", "quarantined")

#: Localhost only: never route through a proxy from the environment.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def job_request(seed: int) -> Dict[str, object]:
    return {"target": "fig6", "quick": True, "seeds": [seed], "overrides": dict(OVERRIDES)}


class JobError(RuntimeError):
    """An operation that did not end with a correct result."""


class Server:
    """One ``serve`` process with its own store and result cache."""

    def __init__(self, workdir: Path, trace_out: Optional[Path] = None) -> None:
        workdir.mkdir(parents=True)
        serve_args = ["serve", "--port", "0", "--allow-shutdown", "--store", str(workdir / "jobs.sqlite")]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.experiments.cli"] + serve_args
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(trace_out)] + serve_args
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(workdir / "cache"))
        self._log = open(workdir / "serve.log", "w")
        start = clock()
        try:
            self.proc = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=self._log,
                text=True,
                env=env,
                cwd=str(workdir),
            )
        except OSError:
            self._log.close()
            raise
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.close(kill=True)
            raise
        #: Spawn to ``listening on`` line.
        self.boot_s = clock() - start

    def _wait_ready(self) -> str:
        deadline = clock() + BOOT_TIMEOUT_S
        stdout = self.proc.stdout
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                raise JobError("service never printed its ready line")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise JobError(f"service exited before becoming ready (rc={self.proc.poll()})")
            if line.startswith("listening on "):
                return line.split("listening on ", 1)[1].strip()

    def http(self, method: str, path: str, payload: Optional[object] = None) -> Tuple[int, dict]:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with _OPENER.open(request, timeout=HTTP_TIMEOUT_S) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the serve process."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise JobError("VmHWM not reported")

    def stop(self) -> None:
        """Shut down over HTTP (the traced launcher then writes its report)."""
        try:
            self.http("POST", "/shutdown")
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self.close(kill=True)

    def close(self, kill: bool) -> None:
        """Stop the process (kill or terminate) and wait for it."""
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            else:
                self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Job:
    """One operation's outcome."""

    latency_s: float
    digest: str
    key: str
    #: The job record as last served (store timestamps included).
    record: Dict[str, object]
    #: Client wall clock when the result body arrived.
    received_at: float


def fresh_job(server: Server, seed: int) -> Job:
    """Submit a new job, long-poll it to completion, fetch the result."""
    start = clock()
    status, body = server.http("POST", "/jobs", job_request(seed))
    if status != 202 or body.get("deduped"):
        raise JobError(f"fresh submit returned {status}: {body}")
    job = body["job"]
    key = job["key"]
    while job["state"] not in TERMINAL:
        if clock() - start > JOB_TIMEOUT_S:
            raise JobError(f"job {key[:12]} stuck in state {job['state']!r}")
        status, body = server.http("GET", f"/jobs/{key}?wait=10")
        if status != 200:
            raise JobError(f"poll returned {status}: {body}")
        job = body["job"]
    status, body = server.http("GET", f"/jobs/{key}/result")
    received_at = time.time()
    latency_s = clock() - start
    if status != 200 or job["state"] != "done" or job["attempts"] != 1:
        raise JobError(f"job {key[:12]} ended {job['state']} after {job['attempts']} attempt(s)")
    return Job(latency_s, _checked_digest(body), key, job, received_at)


def dedupe_job(server: Server, seed: int) -> Job:
    """Resubmit a finished job and fetch its result from the store."""
    start = clock()
    status, body = server.http("POST", "/jobs", job_request(seed))
    if status != 200 or not body.get("deduped") or body["job"]["state"] != "done":
        raise JobError(f"resubmission was not a finished dedupe hit ({status}): {body}")
    key = body["job"]["key"]
    status, result = server.http("GET", f"/jobs/{key}/result")
    received_at = time.time()
    latency_s = clock() - start
    if status != 200:
        raise JobError(f"result fetch returned {status}")
    return Job(latency_s, _checked_digest(result), key, body["job"], received_at)


def _checked_digest(body: Dict[str, object]) -> str:
    result = body["result"]
    problems = check_figure(result["figure"], "fig6") + [str(f) for f in result["failures"]]
    if problems:
        raise JobError("; ".join(problems))
    return digest(result["figure"])


def _attempt(op, server: Server, seed: int, result: RunResult) -> Optional[Job]:
    result.attempted += 1
    try:
        return op(server, seed)
    except (JobError, OSError, KeyError, ValueError) as exc:
        result.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
        traceback.print_exc()
        return None


@dataclass
class ServiceWorkload:
    op: Callable[[Server, int], Job]
    think_high_s: float
    #: Fresh jobs the operations resubmit (None: each operation is fresh).
    pool: Optional[int]
    #: Traced operations per second of ``--seconds``.
    trace_rate: float

    def inputs(self, seed: int) -> Iterator[Tuple[int, float]]:
        return iter_inputs(seed, self.think_high_s, self.pool)

    def prefill_seeds(self, seed: int) -> List[int]:
        """Fresh jobs run before the measured operations: the pool, or a warm-up."""
        if self.pool is not None:
            return [sim_seed(seed, op) for op in range(self.pool)]
        return [sim_seed(seed, WARMUP_OP)]


WORKLOADS: Dict[str, ServiceWorkload] = {
    "service-fresh": ServiceWorkload(fresh_job, FRESH_THINK_S, None, 2.2),
    "service-dedupe": ServiceWorkload(dedupe_job, DEDUPE_THINK_S, DEDUPE_POOL, 12.0),
}


def _prefill(workload: ServiceWorkload, server: Server, seed: int, result: RunResult) -> List[Job]:
    jobs = []
    for prefill_seed in workload.prefill_seeds(seed):
        job = _attempt(fresh_job, server, prefill_seed, result)
        if job is not None:
            jobs.append(job)
    return jobs


def _operations(workload, server, seed, result, until=None, count=None) -> List[Job]:
    """Closed loop: think, then one operation; until a deadline or a count."""
    jobs: List[Job] = []
    for op, (op_seed, think_s) in enumerate(workload.inputs(seed)):
        if count is not None and op >= count:
            break
        time.sleep(think_s)
        job = _attempt(workload.op, server, op_seed, result)
        if job is not None:
            jobs.append(job)
        if until is not None and clock() >= until:
            break
    return jobs


def _verify_direct(jobs: List[Job], result: RunResult) -> None:
    """The first three served jobs equal a direct engine run of their request."""
    for job in jobs[:3]:
        result.attempted += 1
        request = engine.SweepRequest.from_dict(job.record["request"])
        if engine.request_key(request) != job.key:
            result.fail(f"job {job.key[:12]}: request_key differs from the service's key")
        direct = engine.run_request(request, workers=1, cache=None)
        if digest(direct.figure.to_dict()) != job.digest:
            result.fail(f"job {job.key[:12]}: served figure differs from a direct run")


def _stamps(jobs: List[Job]) -> Dict[str, List[float]]:
    """Queue wait, run and delivery times from the store's job timestamps."""
    records = [(job.record, job.received_at) for job in jobs]
    return {
        "queue_wait": [r["started_at"] - r["submitted_at"] for r, _ in records],
        "run": [r["finished_at"] - r["started_at"] for r, _ in records],
        "delivery": [received - r["finished_at"] for r, received in records],
    }


def run(name: str, seed: int, seconds: float) -> RunResult:
    """Untraced pass: cold boots for ``setup_s``, then closed-loop operations."""
    workload = WORKLOADS[name]
    result = RunResult()
    with scratch_dir(f"{name}-") as workdir:
        boots: List[float] = []
        for rep in range(max(2, min(BOOTS, int(seconds // 2))) - 1):
            server = Server(workdir / f"boot{rep}")
            boots.append(server.boot_s)
            server.close(kill=False)
        server = Server(workdir / "measured")
        boots.append(server.boot_s)
        try:
            prefilled = _prefill(workload, server, seed, result)
            jobs = _operations(workload, server, seed, result, until=clock() + seconds)
            rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        result.digests = [job.digest for job in jobs]
        if workload.pool is not None:
            expected = {job.key: job.digest for job in prefilled}
            for job in jobs:
                if expected.get(job.key) != job.digest:
                    result.fail(f"dedupe hit {job.key[:12]} served a different figure")
        _verify_direct(prefilled if workload.pool is not None else jobs, result)
    if not jobs:
        return result
    latencies = [job.latency_s for job in jobs]
    result.metrics = {
        "setup_s": Metric(statistics.median(boots), "s", len(boots)),
        "latency_p50_s": Metric(statistics.median(latencies), "s", len(latencies)),
        "peak_rss_mb": Metric(rss_mb, "MB", 1),
    }
    tail = tail_percentile(len(latencies))
    if tail is not None and tail > 50:
        result.info[f"latency_p{tail}_s"] = Metric(percentile(latencies, tail), "s", len(latencies))
    if workload.pool is None:
        for stage, values in _stamps(jobs).items():
            result.info[f"{stage}_p50_s"] = Metric(statistics.median(values), "s", len(values))
    return result


def run_traced(name: str, seed: int, seconds: float) -> RunResult:
    """Traced pass: the same operations against a plain and a traced server."""
    workload = WORKLOADS[name]
    ops = max(1, int(seconds * workload.trace_rate))
    result = RunResult()
    span_cost_s = calibrate_span_cost()
    with scratch_dir(f"{name}-traced-") as workdir:
        plain = Server(workdir / "plain")
        try:
            _prefill(workload, plain, seed, result)
            plain_jobs = _operations(workload, plain, seed, result, count=ops)
        finally:
            plain.stop()
        trace_file = workdir / "trace.json"
        traced = Server(workdir / "traced", trace_out=trace_file)
        try:
            _prefill(workload, traced, seed, result)
            status, _ = traced.http("GET", RESET_PATH)
            if status != 200:
                print(f"{name}: tracer reset unavailable (HTTP {status}); warm-up included")
            traced_jobs = _operations(workload, traced, seed, result, count=ops)
        finally:
            traced.stop()
        report = json.loads(trace_file.read_text())
    result.digests = [job.digest for job in plain_jobs]
    if [job.digest for job in traced_jobs] != result.digests:
        result.fail("traced service served different figures than the untraced one")
    for entry in report["missing"]:
        print(f"{name}: entry point missing: {entry}")
    plain_s = sum(job.latency_s for job in plain_jobs)
    traced_s = sum(job.latency_s for job in traced_jobs)
    handled_s = sum(report["name_s"].get(f"_Handler.{verb}", 0.0) for verb in ("do_GET", "do_POST"))
    extra = {
        "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
        # Share of client-seen latency spent inside the server's handlers.
        "trace.coverage": handled_s / traced_s if traced_s else 0.0,
        "service.worker.idle_claims": (
            report["names"].get("JobStore.claim", 0.0) - report["names"].get("WorkerPool._execute", 0.0)
        ) / ops,
    }
    if workload.pool is None and plain_jobs:
        for stage, values in _stamps(plain_jobs).items():
            extra[f"service.{stage}_p50_s"] = statistics.median(values)
    result.metrics = layer_metrics(report, ops, span_cost_s, extra)
    return result
