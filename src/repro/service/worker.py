"""Background worker pool: drains the job store through the sweep engine.

Each worker is a daemon thread that claims the oldest queued job under a
**lease**, runs it via :func:`repro.experiments.engine.run_request` (which
fans sweep cells over the spawn-safe *process* pool and the shared
content-addressed result cache), streams per-cell progress lines back
into the store, and settles the terminal state.  An idle worker blocks on
the store's change signal and wakes as soon as a job becomes claimable;
``poll_interval_s`` is only the fallback for changes made by other
processes.  A run whose cells failed permanently marks the job
``failed`` with the cell errors — partial figures are stored but never
silently served as complete.

Liveness is active, not assumed: a single heartbeat thread renews the
lease of every in-flight job (and reaps other processes' expired leases)
every ``lease_s / 3`` seconds.  If this process dies, the heartbeats
stop, the lease times out, and any surviving service process requeues the
job — nothing is lost and nothing is double-run while we are alive.
Settling is owner-guarded end to end: a worker that somehow outlives its
lease cannot overwrite a job that was already handed to someone else.

The engine call is injectable (``runner=``) so the store/API failure
paths can be tested without simulating anything, and ``chaos_hook`` lets
tests (and the crash smoke) deterministically kill or wound a worker
mid-job at an exact progress line.
"""

from __future__ import annotations

import threading
import traceback
from typing import Callable, Dict, List, Optional, Set

from ..experiments.engine import Progress, SweepRequest, SweepResult, run_request
from .store import JobRecord, JobStore

#: Executes one request; the default is the pure engine.
Runner = Callable[[SweepRequest, Progress], SweepResult]

#: Called after each progress line with ``(job_key, lines_so_far)``.  May
#: raise (turning the job into a clean failure) or kill the process
#: outright (exercising the lease-expiry crash path).
ChaosHook = Callable[[str, int], None]

#: Default fallback cadence for noticing other processes' store writes.
POLL_INTERVAL_S = 0.1


class WorkerPool:
    """Threads that claim, execute, and settle jobs from a :class:`JobStore`.

    Args:
        store: The shared job store.  Claims, heartbeats, and settles all
            use ``store.owner`` as this pool's identity.
        n_workers: Worker threads.  Each worker runs one job at a time;
            within a job the engine may fan out further via
            ``run_kwargs["workers"]`` process workers.
        run_kwargs: Extra keyword arguments for
            :func:`~repro.experiments.engine.run_request`
            (``workers``, ``cache``, ``cell_timeout_s``).  The cell is the
            unit of recovery: a job reclaimed after a crash runs again
            from the start, and with ``cache`` on every cell the lost
            attempt finished is a cache hit.
        runner: Test seam replacing the engine call.
        poll_interval_s: Fallback re-claim cadence for an idle worker.
            Submissions, releases and lease requeues made through this
            process's store wake idle workers at once; this timer only
            catches what raises no signal here — jobs submitted by a
            sibling process sharing the store file, and jobs whose
            ``not_before`` retry backoff has just ended.
        chaos_hook: Fault-injection seam; see :data:`ChaosHook`.
    """

    def __init__(
        self,
        store: JobStore,
        n_workers: int = 1,
        run_kwargs: Optional[Dict[str, object]] = None,
        runner: Optional[Runner] = None,
        poll_interval_s: float = POLL_INTERVAL_S,
        chaos_hook: Optional[ChaosHook] = None,
    ) -> None:
        self.store = store
        self.n_workers = max(1, int(n_workers))
        self.run_kwargs = dict(run_kwargs or {})
        self.poll_interval_s = poll_interval_s
        self.chaos_hook = chaos_hook
        self._runner = runner or self._engine_runner
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._inflight: Set[str] = set()
        self._inflight_lock = threading.Lock()
        #: Jobs this pool settled (done or failed), for tests/monitoring.
        self.completed = 0
        #: Settle attempts rejected by the owner guard — our lease had
        #: already expired and the job belonged to someone else.
        self.lease_losses = 0

    # ------------------------------------------------------------------
    def _engine_runner(self, request: SweepRequest, progress: Progress) -> SweepResult:
        return run_request(request, progress=progress, **self.run_kwargs)

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Signal every worker to stop, join them, and drain leftovers.

        A worker mid-job gets ``timeout_s`` to finish; any job still
        running after that is **released** — returned to the queue with
        its attempt refunded — so a graceful shutdown never burns retry
        budget or strands work until a lease times out.  The zombie
        thread's eventual settle attempt is rejected by the owner guard.
        Idle workers are woken, so stopping never waits out a poll.
        """
        self._stop.set()
        self.store.wake_waiters()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=timeout_s)
            self._heartbeat_thread = None
        with self._inflight_lock:
            leftovers = sorted(self._inflight)
            self._inflight.clear()
        for key in leftovers:
            try:
                self.store.release(key)
            except Exception:  # pragma: no cover - store torn down under us
                break
        self._threads = []

    @property
    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        """Renew in-flight leases and reap expired ones, every lease/3."""
        interval = max(self.store.lease_s / 3.0, 0.05)
        while not self._stop.wait(interval):
            with self._inflight_lock:
                keys = list(self._inflight)
            try:
                for key in keys:
                    self.store.heartbeat(key)
                self.store.expire_leases()
            except Exception:  # pragma: no cover - store torn down under us
                return

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                seen = self.store.generation(claimable=True)
                job = self.store.claim()
            except Exception:  # pragma: no cover - store torn down under us
                return
            if job is None:
                self.store.wait_change(
                    seen, self.poll_interval_s, claimable=True, cancel=self._stop
                )
                continue
            self._execute(job)

    def _execute(self, job: JobRecord) -> None:
        key = job.key
        owner = self.store.owner
        with self._inflight_lock:
            self._inflight.add(key)
        lines = [0]

        def progress(line: str) -> None:
            self.store.add_progress(key, line)
            lines[0] += 1
            if self.chaos_hook is not None:
                self.chaos_hook(key, lines[0])

        try:
            try:
                request = SweepRequest.from_dict(job.request)
                result = self._runner(request, progress)
            except Exception as exc:
                self.store.add_progress(key, f"failed: {type(exc).__name__}: {exc}")
                self._settle(
                    self.store.fail(
                        key,
                        f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                        owner=owner,
                    )
                )
                return
            if result.failures:
                labels = ", ".join(f["cell"] for f in result.failures)
                self.store.add_progress(
                    key, f"finished with {len(result.failures)} failed cell(s)"
                )
                # Keep the partial result for inspection, but the job is
                # failed: a figure with missing cells must never be served
                # as complete.
                self._settle(
                    self.store.fail(
                        key,
                        f"{len(result.failures)} sweep cell(s) failed "
                        f"permanently: {labels}",
                        result=result.to_dict(),
                        owner=owner,
                    )
                )
            else:
                self.store.add_progress(key, "done")
                self._settle(self.store.finish(key, result.to_dict(), owner=owner))
        finally:
            with self._inflight_lock:
                self._inflight.discard(key)

    def _settle(self, settled: bool) -> None:
        with self._inflight_lock:
            if settled:
                self.completed += 1
            else:
                # Our lease expired mid-run and the job was requeued (and
                # possibly re-leased): the guard kept us from clobbering it.
                self.lease_losses += 1

    def stats(self) -> Dict[str, object]:
        """In-flight job keys and settle counters, for ``/healthz``."""
        with self._inflight_lock:
            return {
                "inflight": sorted(self._inflight),
                "completed": self.completed,
                "lease_losses": self.lease_losses,
            }
