"""Stdlib REST/SSE front-end over the job store and sweep engine.

No dependencies beyond ``http.server`` — the service must run anywhere
the simulator does.  Endpoints (all JSON unless noted):

``GET  /healthz``
    Liveness, job counts per state, and the worker pool's in-flight
    keys and settle counters (``workers``; null without a pool).
``GET  /targets``
    Servable figure targets (``fig6`` ... ``chaos``).
``POST /jobs``
    Submit a sweep request, e.g. ``{"target": "fig6", "quick": true,
    "seeds": [1], "overrides": {"n_sensors": 20}}``; without ``seeds``
    the target's own seeds run.  Responds with the
    job record and ``"deduped": true`` when an identical submission
    (same content-addressed key) already exists — no second run is
    scheduled.
``GET  /jobs``
    All jobs, newest first (without result bodies).
``GET  /jobs/<key>[?wait=SECONDS]``
    One job; with ``wait`` long-polls until the job reaches a terminal
    state or the timeout elapses (400 unless ``wait`` is a finite,
    non-negative number of seconds).
``GET  /jobs/<key>/result``
    The finished job's :class:`~repro.experiments.engine.SweepResult`
    document (409 while queued/running, 500-ish payload for
    failed/quarantined jobs, error chain included).
``GET  /jobs/<key>/events``
    ``text/event-stream`` (SSE): replays the job's progress lines, then
    streams new ones until the job finishes (``event: end``).
``POST /shutdown``
    Clean remote shutdown (only when the server was started with
    ``allow_shutdown=True`` — the CI smoke uses this).
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple

from ..experiments.engine import EngineError, SweepRequest, request_key, service_targets
from .store import DONE, FAILED, QUARANTINED, JobStore
from .worker import POLL_INTERVAL_S, ChaosHook, WorkerPool

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{16,64})(/result|/events)?$")

#: Cap on one long-poll / SSE wait; clients re-issue to wait longer.
MAX_WAIT_S = 60.0


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to a job store and worker pool."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: JobStore,
        pool: Optional[WorkerPool],
        allow_shutdown: bool = False,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = store
        self.pool = pool
        self.allow_shutdown = allow_shutdown
        self.quiet = quiet
        self.started_at = time.time()
        #: Fallback re-check cadence of long-polls and SSE streams, for
        #: jobs settled by another process (which raise no signal here).
        self.poll_interval_s = pool.poll_interval_s if pool else POLL_INTERVAL_S

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def shutdown_soon(self) -> None:
        """Stop the pool and the server from a request thread."""

        def _stop() -> None:
            if self.pool is not None:
                self.pool.stop()
            self.shutdown()

        threading.Thread(target=_stop, name="repro-shutdown", daemon=True).start()


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[Dict[str, object]]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _query(self) -> Dict[str, str]:
        if "?" not in self.path:
            return {}
        query: Dict[str, str] = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            name, _, value = pair.partition("=")
            if name:
                query[name] = value
        return query

    @property
    def _route(self) -> str:
        return self.path.split("?", 1)[0]

    def _watch(self, timeout_s: float) -> Iterator[float]:
        """Yield the time left now and after each store change, until none.

        The store generation is read before each yield, so a change that
        commits while the caller inspects the store still ends the next
        wait at once.  Each wait is capped at the poll interval, so
        another process's writes are noticed too.
        """
        store = self.server.store
        deadline = time.monotonic() + timeout_s
        while True:
            seen = store.generation()
            remaining = deadline - time.monotonic()
            yield remaining
            if remaining <= 0:
                return
            store.wait_change(seen, min(remaining, self.server.poll_interval_s))

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._get()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _get(self) -> None:
        route = self._route
        if route == "/healthz":
            pool = self.server.pool
            self._send_json(
                200,
                {
                    "ok": True,
                    "jobs": self.server.store.counts(),
                    "workers_alive": pool.alive if pool else False,
                    "workers": pool.stats() if pool else None,
                    "uptime_s": round(time.time() - self.server.started_at, 3),
                },
            )
            return
        if route == "/targets":
            self._send_json(200, {"targets": list(service_targets())})
            return
        if route == "/jobs":
            self._send_json(
                200,
                {"jobs": [job.to_dict() for job in self.server.store.list_jobs()]},
            )
            return
        match = _JOB_PATH.match(route)
        if match is None:
            self._error(404, f"no such route: {route}")
            return
        key, tail = match.group(1), match.group(2)
        job = self.server.store.get(key)
        if job is None:
            self._error(404, f"no such job: {key}")
            return
        if tail == "/events":
            self._stream_events(key)
            return
        if tail == "/result":
            if job.state in (FAILED, QUARANTINED):
                self._send_json(
                    500, {"key": key, "state": job.state, "error": job.error,
                          "result": job.result}
                )
            elif job.state != DONE:
                self._error(409, f"job {key} is {job.state}; result not ready")
            else:
                self._send_json(200, {"key": key, "result": job.result})
            return
        wait_s = 0.0
        raw_wait = self._query().get("wait")
        if raw_wait:
            try:
                wait_s = float(raw_wait)
            except ValueError:
                wait_s = math.nan
            # NaN would make every wait return at once: a busy loop.
            if not (math.isfinite(wait_s) and wait_s >= 0):
                self._error(400, f"bad wait value: {raw_wait!r}")
                return
        if not job.terminal:
            for remaining in self._watch(min(wait_s, MAX_WAIT_S)):
                job = self.server.store.get(key)
                if job.terminal or remaining <= 0:
                    break
        self._send_json(200, {"job": job.to_dict()})

    def _stream_events(self, key: str) -> None:
        """SSE: replay progress, then follow until the job is terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream: no Content-Length, close when done.
        self.send_header("Connection", "close")
        self.end_headers()
        last_id = 0
        for remaining in self._watch(MAX_WAIT_S):
            for line_id, line in self.server.store.progress_since(key, last_id):
                last_id = line_id
                self.wfile.write(f"data: {line}\n\n".encode("utf-8"))
            self.wfile.flush()
            job = self.server.store.get(key)
            if job is None or job.terminal:
                state = job.state if job is not None else "gone"
                self.wfile.write(f"event: end\ndata: {state}\n\n".encode("utf-8"))
                self.wfile.flush()
                return
            if remaining <= 0:
                self.wfile.write(b"event: timeout\ndata: reconnect\n\n")
                self.wfile.flush()
                return

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            self._post()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _post(self) -> None:
        route = self._route
        if route == "/shutdown":
            if not self.server.allow_shutdown:
                self._error(403, "shutdown endpoint disabled")
                return
            self._send_json(202, {"ok": True, "shutting_down": True})
            self.server.shutdown_soon()
            return
        if route != "/jobs":
            self._error(404, f"no such route: {route}")
            return
        payload = self._read_body()
        if payload is None:
            self._error(400, "request body must be a JSON object")
            return
        try:
            request = SweepRequest.from_dict(payload)
            key = request_key(request)
        except EngineError as exc:
            self._error(400, str(exc))
            return
        record, deduped = self.server.store.submit(key, request.to_dict())
        self._send_json(
            200 if deduped else 202,
            {"job": record.to_dict(), "deduped": deduped},
        )


def make_server(
    store: JobStore,
    pool: Optional[WorkerPool],
    host: str = "127.0.0.1",
    port: int = 0,
    allow_shutdown: bool = False,
    quiet: bool = True,
) -> ServiceServer:
    """Bind (but do not start) a service server; ``port=0`` picks a free one."""
    return ServiceServer((host, port), store, pool, allow_shutdown, quiet)


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    store_path: str = ".repro-service.sqlite",
    n_service_workers: int = 1,
    run_kwargs: Optional[Dict[str, object]] = None,
    allow_shutdown: bool = False,
    quiet: bool = True,
    lease_s: float = 30.0,
    max_attempts: int = 3,
    chaos_kill_after: Optional[int] = None,
) -> int:
    """Run the service until interrupted (the ``repro-uasn serve`` body).

    Prints exactly one ready line (``listening on <url>``) to stdout so
    wrappers — the CI smoke script — can discover the bound port.

    ``chaos_kill_after=N`` arms the fault-injection hook: the process
    SIGKILLs **itself** after the N-th progress line of any job, leaving
    a leased ``running`` job behind.  The crash-recovery smoke uses this
    to die mid-job deterministically and prove a restarted service picks
    the job up once its lease expires.
    """
    store = JobStore(store_path, lease_s=lease_s, max_attempts=max_attempts)
    chaos_hook: Optional[ChaosHook] = None
    if chaos_kill_after is not None:
        threshold = int(chaos_kill_after)

        def chaos_hook(key: str, lines: int) -> None:
            if lines >= threshold:
                print(f"chaos: killing self mid-job {key[:12]}", flush=True)
                os.kill(os.getpid(), signal.SIGKILL)

    pool = WorkerPool(
        store,
        n_workers=n_service_workers,
        run_kwargs=run_kwargs,
        chaos_hook=chaos_hook,
    )
    server = make_server(store, pool, host, port, allow_shutdown, quiet)
    pool.start()
    if store.expired_on_open:
        print(f"reaped {store.expired_on_open} expired job lease(s)", flush=True)
    print(f"listening on {server.url}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        pool.stop()
        server.server_close()
        store.close()
    return 0
