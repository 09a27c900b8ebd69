"""Persistent job store for the simulation service.

Jobs are keyed by :func:`repro.experiments.engine.request_key` — a
content-addressed digest over the request's sweep cells and the source
tree — so the store *is* the dedupe layer: submitting a request whose
key already exists attaches to the existing job instead of queueing a
second run.  (The per-cell result cache below the engine additionally
makes any genuine re-run of identical cells free.)

State machine::

                           ┌──heartbeat (lease extended)──┐
                           ▼                              │
    queued ──claim──> running ──finish──> done            │
      ▲  ▲              │  │                              │
      │  │              │  └──────────────────────────────┘
      │  │              ├──fail──> failed ──resubmit──> queued
      │  │              │
      │  └─release──────┤            (graceful drain, attempt refunded)
      │                 │
      │            lease expired
      │                 │
      ├─────────────────┴── attempts < max_attempts
      │                        (backoff: not_before = now + base·2^(n-1))
      │
      └── otherwise ──> quarantined  (terminal; error chain preserved;
                                      only an explicit resubmit revives it)

Ownership is **leased**, not assumed: a claim stamps the job with the
claiming store's ``owner`` id and a lease deadline, workers heartbeat the
lease while running, and only :meth:`JobStore.expire_leases` — never a
blanket requeue — returns crashed workers' jobs to the queue.  A second
service process sharing the store file therefore cannot steal jobs from
a live sibling: its open only reaps leases that actually expired.  Every
transition is one ``BEGIN IMMEDIATE`` sqlite transaction, serialized
through an in-process lock *and* sqlite's own file locking (WAL mode +
``busy_timeout``), so worker threads and sibling processes claim safely.

Waiting is event-driven within a process: every committed transaction
bumps a change *generation* and wakes the threads blocked in
:meth:`JobStore.wait_change` — idle workers, long-polls, SSE streams —
instead of each sleeping on its own timer.  Workers wait on a narrower
generation that only moves when a job may have become claimable
(submit, release, a requeueing lease expiry), so progress lines and
heartbeats never cause empty claims.  Another process's writes raise no
signal here; waiters pass a timeout to notice them.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

log = logging.getLogger("repro.service")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: Terminal state for poison jobs: the retry budget is exhausted.  Never
#: auto-requeued; an explicit resubmission is the only way back out.
QUARANTINED = "quarantined"

#: Every legal state, in lifecycle order.
STATES = (QUEUED, RUNNING, DONE, FAILED, QUARANTINED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key              TEXT PRIMARY KEY,
    request          TEXT NOT NULL,
    state            TEXT NOT NULL,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    error            TEXT NOT NULL DEFAULT '',
    result           TEXT,
    owner            TEXT,
    lease_expires_at REAL,
    not_before       REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS progress (
    id   INTEGER PRIMARY KEY AUTOINCREMENT,
    key  TEXT NOT NULL,
    at   REAL NOT NULL,
    line TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS progress_by_key ON progress (key, id);
"""

#: Columns added since the v1 schema, for in-place migration of old
#: store files (``ALTER TABLE ADD COLUMN`` is cheap and idempotent-ish:
#: guarded by a ``PRAGMA table_info`` existence check).
_MIGRATIONS: Tuple[Tuple[str, str], ...] = (
    ("owner", "ALTER TABLE jobs ADD COLUMN owner TEXT"),
    ("lease_expires_at", "ALTER TABLE jobs ADD COLUMN lease_expires_at REAL"),
    ("not_before", "ALTER TABLE jobs ADD COLUMN not_before REAL NOT NULL DEFAULT 0"),
)


def default_owner() -> str:
    """A unique-per-store-instance worker identity (host:pid:nonce)."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass
class JobRecord:
    """One job's stored state (a row of the ``jobs`` table)."""

    key: str
    request: Dict[str, object]
    state: str
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: str = ""
    result: Optional[Dict[str, object]] = None
    progress: List[str] = field(default_factory=list)
    owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    not_before: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED, QUARANTINED)

    def to_dict(self, include_result: bool = False) -> Dict[str, object]:
        """JSON shape served by the API (results are a separate fetch)."""
        payload: Dict[str, object] = {
            "key": self.key,
            "request": self.request,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "owner": self.owner,
            "lease_expires_at": self.lease_expires_at,
            "not_before": self.not_before,
        }
        if include_result:
            payload["result"] = self.result
        return payload


class JobStore:
    """Sqlite-backed job queue with leased claims and retry budgets.

    Args:
        path: Store file (created on first use).  Parent directories are
            created as needed.
        requeue: Reap expired leases as soon as the store opens (the
            crash-recovery path: a worker that died mid-job stops
            heartbeating and its lease times out).  Pass ``False`` when
            opening read-only alongside a live service.  Unlike the old
            blanket requeue, this can never steal a job whose worker is
            alive and heartbeating.
        owner: This store instance's claim identity; defaults to a
            host:pid:nonce string unique per instance.
        lease_s: Default claim lease duration.  Workers must heartbeat
            within this window or lose the job to :meth:`expire_leases`.
        max_attempts: Retry budget — a job whose lease expires on its
            ``max_attempts``-th attempt is quarantined instead of
            requeued.
        backoff_base_s: First-retry backoff; doubles per attempt
            (``not_before = now + backoff_base_s * 2**(attempts-1)``).
        progress_ttl_s: On open, progress lines older than this whose job
            is terminal are pruned (the table otherwise grows without
            bound across restarts).
    """

    def __init__(
        self,
        path: Union[str, Path],
        requeue: bool = True,
        owner: Optional[str] = None,
        lease_s: float = 30.0,
        max_attempts: int = 3,
        backoff_base_s: float = 1.0,
        progress_ttl_s: float = 7 * 24 * 3600.0,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.owner = owner or default_owner()
        self.lease_s = float(lease_s)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self._lock = threading.RLock()
        # Change signal.  Generations are bumped under ``_changed`` only
        # after ``_lock`` is released, and waiters never take ``_lock``
        # while holding ``_changed``: the two locks are never nested.
        self._changed = threading.Condition(threading.Lock())
        self._generation = 0
        self._claimable_generation = 0
        # Set inside a transaction (``_lock`` held) whose commit should
        # wake idle workers; read and reset by ``_txn``.
        self._wakes_workers = False
        # Autocommit at the sqlite level; every mutation goes through an
        # explicit BEGIN IMMEDIATE (see _txn) so the write lock is taken
        # up front — a SELECT-then-UPDATE claim can't race a sibling
        # process into double-claiming.
        self._conn = sqlite3.connect(
            str(self.path),
            check_same_thread=False,
            timeout=30.0,
            isolation_level=None,
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            # WAL lets sibling service processes read while one writes,
            # and busy_timeout makes lock contention wait instead of
            # throwing "database is locked".
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)
            self._migrate()
        self.pruned_on_open = self._prune_progress(progress_ttl_s)
        #: Jobs whose expired leases were reaped when this store opened
        #: (requeued + quarantined).  Live heartbeated jobs are never
        #: touched.
        self.expired_on_open = self.expire_leases() if requeue else 0

    def _migrate(self) -> None:
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(jobs)").fetchall()
        }
        for column, statement in _MIGRATIONS:
            if column not in columns:
                self._conn.execute(statement)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One mutation as a write-locked transaction; signals on commit."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            self._wakes_workers = False
            try:
                yield self._conn
            except BaseException:
                self._conn.rollback()
                raise
            else:
                self._conn.commit()
            claimable = self._wakes_workers
        with self._changed:
            self._generation += 1
            if claimable:
                self._claimable_generation += 1
            self._changed.notify_all()

    # ------------------------------------------------------------------
    def _current(self, claimable: bool) -> int:
        return self._claimable_generation if claimable else self._generation

    def generation(self, claimable: bool = False) -> int:
        """The current change generation (with ``claimable``, the
        generation of changes that may have made a job claimable).

        Read it *before* inspecting the store, then hand it to
        :meth:`wait_change`: a change committed in between is not missed.
        """
        with self._changed:
            return self._current(claimable)

    def wait_change(
        self,
        seen: int,
        timeout_s: float,
        claimable: bool = False,
        cancel: Optional[threading.Event] = None,
    ) -> None:
        """Block until the generation moves past ``seen``.

        Also returns when ``timeout_s`` elapses (the only way to notice
        another process's writes) or once ``cancel`` is set and
        :meth:`wake_waiters` is called.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: self._current(claimable) != seen
                or (cancel is not None and cancel.is_set()),
                timeout_s,
            )

    def wake_waiters(self) -> None:
        """Make every :meth:`wait_change` caller re-check its cancel event."""
        with self._changed:
            self._changed.notify_all()

    # ------------------------------------------------------------------
    def _row_to_record(self, row: sqlite3.Row) -> JobRecord:
        result = row["result"]
        return JobRecord(
            key=row["key"],
            request=json.loads(row["request"]),
            state=row["state"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            attempts=row["attempts"],
            error=row["error"],
            result=json.loads(result) if result else None,
            owner=row["owner"],
            lease_expires_at=row["lease_expires_at"],
            not_before=row["not_before"],
        )

    # ------------------------------------------------------------------
    def submit(
        self, key: str, request: Dict[str, object]
    ) -> Tuple[JobRecord, bool]:
        """Queue a job, or dedupe onto the existing one.

        Returns ``(record, deduped)``.  ``deduped`` is True when the key
        already had a live (queued/running/done) job — the caller gets
        that job's state with **no new run scheduled**.  A previously
        *failed or quarantined* job is requeued instead (resubmission is
        the retry button), reported as ``deduped=False`` — with its
        error, stale partial ``result``, attempt count, and backoff all
        cleared, so the retry starts from a clean slate and can never
        serve the old partial result as if it were fresh.
        """
        now = time.time()
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO jobs (key, request, state, submitted_at) "
                    "VALUES (?, ?, ?, ?)",
                    (key, json.dumps(request), QUEUED, now),
                )
                self._wakes_workers = True
                return self.get(key), False
            if row["state"] in (FAILED, QUARANTINED):
                conn.execute(
                    "UPDATE jobs SET state = ?, error = '', finished_at = NULL, "
                    "result = NULL, attempts = 0, not_before = 0, owner = NULL, "
                    "lease_expires_at = NULL, submitted_at = ? WHERE key = ?",
                    (QUEUED, now, key),
                )
                self._wakes_workers = True
                return self.get(key), False
            return self._row_to_record(row), True

    def claim(
        self, owner: Optional[str] = None, lease_s: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Atomically lease the oldest *eligible* queued job to ``owner``.

        Eligible means ``not_before`` has passed — a job backing off
        after a crashed attempt stays invisible until its retry time.
        The claim stamps the owner id and a lease deadline; the owner
        must :meth:`heartbeat` before the deadline or the job returns to
        the queue via :meth:`expire_leases`.
        """
        now = time.time()
        owner = owner or self.owner
        lease = self.lease_s if lease_s is None else float(lease_s)
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE state = ? AND not_before <= ? "
                "ORDER BY submitted_at, key LIMIT 1",
                (QUEUED, now),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = ?, started_at = ?, owner = ?, "
                "lease_expires_at = ?, attempts = attempts + 1 WHERE key = ?",
                (RUNNING, now, owner, now + lease, row["key"]),
            )
        return self.get(row["key"])

    def heartbeat(
        self, key: str, owner: Optional[str] = None, lease_s: Optional[float] = None
    ) -> bool:
        """Extend a running job's lease; False if the job is no longer ours.

        A False return tells the worker its lease already expired and the
        job was handed to someone else (or settled) — it should abandon
        the run rather than settle a job it no longer owns.
        """
        owner = owner or self.owner
        lease = self.lease_s if lease_s is None else float(lease_s)
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires_at = ? "
                "WHERE key = ? AND state = ? AND owner = ?",
                (time.time() + lease, key, RUNNING, owner),
            )
            return cursor.rowcount > 0

    def finish(
        self, key: str, result: Dict[str, object], owner: Optional[str] = None
    ) -> bool:
        """Mark a running job done and attach its result document.

        Owner-guarded, like :meth:`heartbeat` (``owner`` defaults to this
        store's): a worker whose lease expired mid-run — its job already
        requeued and possibly re-leased elsewhere — settles nothing and
        gets False back.
        """
        owner = owner or self.owner
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, result = ?, "
                "owner = NULL, lease_expires_at = NULL "
                "WHERE key = ? AND state = ? AND owner = ?",
                (DONE, time.time(), json.dumps(result), key, RUNNING, owner),
            )
            return cursor.rowcount > 0

    def fail(
        self,
        key: str,
        error: str,
        result: Optional[Dict[str, object]] = None,
        owner: Optional[str] = None,
    ) -> bool:
        """Mark a job failed, capturing the error (and any partial result).

        This is the *deliberate* failure path (the run raised, or cells
        failed permanently): the job goes straight to ``failed`` and
        waits for an explicit resubmission.  Crash failures — the worker
        died without calling anything — are detected by lease expiry
        instead, where the retry budget and quarantine apply.  Same
        owner guard and default as :meth:`finish`.
        """
        owner = owner or self.owner
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?, "
                "result = ?, owner = NULL, lease_expires_at = NULL "
                "WHERE key = ? AND state = ? AND owner = ?",
                (
                    FAILED,
                    time.time(),
                    error,
                    json.dumps(result) if result is not None else None,
                    key,
                    RUNNING,
                    owner,
                ),
            )
            return cursor.rowcount > 0

    def release(self, key: str, owner: Optional[str] = None) -> bool:
        """Hand a claimed-but-unfinished job back to the queue (drain path).

        The attempt is refunded — a graceful shutdown is not a crash, so
        it must not eat into the retry budget — and the job becomes
        immediately claimable by any surviving worker.
        """
        owner = owner or self.owner
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = ?, owner = NULL, lease_expires_at = NULL, "
                "attempts = MAX(attempts - 1, 0), not_before = 0 "
                "WHERE key = ? AND state = ? AND owner = ?",
                (QUEUED, key, RUNNING, owner),
            )
            self._wakes_workers = cursor.rowcount > 0
            return cursor.rowcount > 0

    def expire_leases(self) -> int:
        """Reap running jobs whose lease has expired; returns the count.

        Each expired job either requeues with exponential backoff
        (``not_before``), or — when its retry budget is spent —
        quarantines with the full error chain of every crashed attempt
        preserved in ``error``.  Jobs whose workers are alive (lease in
        the future) are never touched, so any number of service
        processes can call this concurrently and only true orphans move.
        """
        now = time.time()
        reaped = 0
        with self._txn() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state = ? AND lease_expires_at IS NOT NULL "
                "AND lease_expires_at < ?",
                (RUNNING, now),
            ).fetchall()
            for row in rows:
                attempts = row["attempts"]
                chain = row["error"]
                line = (
                    f"attempt {attempts}: lease expired "
                    f"(owner={row['owner']}, worker presumed dead)"
                )
                chain = f"{chain}\n{line}" if chain else line
                if attempts >= self.max_attempts:
                    conn.execute(
                        "UPDATE jobs SET state = ?, finished_at = ?, error = ?, "
                        "owner = NULL, lease_expires_at = NULL WHERE key = ?",
                        (QUARANTINED, now, chain, row["key"]),
                    )
                else:
                    backoff = self.backoff_base_s * (2 ** (attempts - 1))
                    conn.execute(
                        "UPDATE jobs SET state = ?, error = ?, owner = NULL, "
                        "lease_expires_at = NULL, not_before = ? WHERE key = ?",
                        (QUEUED, chain, now + backoff, row["key"]),
                    )
                    self._wakes_workers = True
                reaped += 1
        return reaped

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[JobRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE key = ?", (key,)
            ).fetchone()
        return self._row_to_record(row) if row is not None else None

    def list_jobs(self) -> List[JobRecord]:
        """Every job, newest submission first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY submitted_at DESC, key"
            ).fetchall()
        return [self._row_to_record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (zero-filled), for /healthz."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        found = {row["state"]: row["n"] for row in rows}
        return {state: found.get(state, 0) for state in STATES}

    # ------------------------------------------------------------------
    def add_progress(self, key: str, line: str) -> None:
        """Append one progress line to a job's stream."""
        with self._txn() as conn:
            conn.execute(
                "INSERT INTO progress (key, at, line) VALUES (?, ?, ?)",
                (key, time.time(), line),
            )

    def progress_since(
        self, key: str, after_id: int = 0, limit: int = 1000
    ) -> List[Tuple[int, str]]:
        """Progress lines with id > ``after_id``, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, line FROM progress WHERE key = ? AND id > ? "
                "ORDER BY id LIMIT ?",
                (key, after_id, limit),
            ).fetchall()
        return [(row["id"], row["line"]) for row in rows]

    def _prune_progress(self, ttl_s: float) -> int:
        """Drop progress of terminal jobs older than the TTL; log the count."""
        cutoff = time.time() - ttl_s
        with self._txn() as conn:
            cursor = conn.execute(
                "DELETE FROM progress WHERE at < ? AND key IN "
                "(SELECT key FROM jobs WHERE state IN (?, ?, ?))",
                (cutoff, DONE, FAILED, QUARANTINED),
            )
            pruned = cursor.rowcount
        if pruned:
            log.info("pruned %d stale progress line(s) from %s", pruned, self.path)
        return pruned
