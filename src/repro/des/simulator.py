"""The discrete-event simulator core.

:class:`Simulator` advances a virtual clock from event to event.  Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and may cancel the returned
:class:`~repro.des.events.Event` handle at any point before it fires.

The kernel is deliberately callback-based rather than coroutine-based: MAC
state machines are clearer as explicit states plus timer callbacks, and a
callback core is ~3x faster than generator trampolining in CPython, which
matters when a single figure sweep runs hundreds of 300-second network
simulations.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import gc as _gc
import heapq as _heapq
import math as _math
import time as _time

from .errors import SchedulingError, WallClockExceeded
from .events import Event, EventQueue, PRIORITY_NORMAL
from .rng import RandomStreams
from .trace import NullTracer, Tracer


class Simulator:
    """Event-driven virtual-time simulator.

    Args:
        seed: Root seed for all random streams (see :class:`RandomStreams`).
        tracer: Optional :class:`Tracer`; defaults to a no-op tracer.

    Attributes:
        now: Current simulation time in seconds.
        streams: Named deterministic RNG registry.
        trace: The tracer (never None; may be a :class:`NullTracer`).
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self.now: float = 0.0
        self.streams = RandomStreams(seed)
        self.trace = tracer if tracer is not None else NullTracer()
        self._queue = EventQueue()
        #: Bound fast-path scheduler: ``push_at(time, callback, args_tuple,
        #: priority=PRIORITY_NORMAL)`` — :meth:`EventQueue.push_plain`
        #: without the :meth:`schedule_at` validation frame and without an
        #: Event handle (the entry cannot be cancelled).  For hot callers
        #: (the channel fan-out, arrival completion) whose times are
        #: already known to be >= ``now`` and who never cancel; everything
        #: else should keep using :meth:`schedule` / :meth:`schedule_at`.
        self.push_at = self._queue.push_plain
        #: Bound batch scheduler: ``push_bulk(times, callbacks, args,
        #: priority)`` — one call heap-pushes a whole pre-built batch of
        #: non-cancellable entries (see :meth:`EventQueue.push_bulk`).
        #: Sequence numbers are assigned in batch order, so the pop order
        #: is bit-identical to an equivalent loop of ``push_at`` calls.
        self.push_bulk = self._queue.push_bulk
        #: Bound sequence reservation: ``take_seq()`` consumes the number the
        #: next push would take, without pushing.  A component that settles
        #: work lazily instead of scheduling an event takes one here, so its
        #: deferred work keeps the queue position (see :meth:`frontier`) the
        #: event would have had and every later event keeps its number.
        self.take_seq = self._queue._seq.__next__
        #: Called as ``hook(frontier)`` whenever :meth:`run` returns, so
        #: lazily deferred work settles before anyone reads its counters.
        #: ``frontier`` is the queue key every processed event sorts below
        #: (all infinite when the queue drained with no ``until``).  A hook
        #: returns the latest time it settled work for, or None; a drained
        #: run's clock advances to it, as if those events had been popped.
        self.run_exit_hooks: List[Callable[[Tuple[float, ...]], Optional[float]]] = []
        # Heap entry of the event being processed; None once a run returns.
        self._entry: Optional[tuple] = None
        self.events_processed = 0
        #: Wall-clock seconds spent inside :meth:`run` (perf instrumentation).
        self.wall_time_s: float = 0.0
        self._wall_deadline: Optional[float] = None
        # Events left until the next deadline check; carried across run
        # calls so that many short windows still reach a check.
        self._wall_countdown = self._WALL_CHECK_EVERY

    # ------------------------------------------------------------------
    # Wall-clock budget (cooperative per-run timeout)
    # ------------------------------------------------------------------
    #: How many events to process between wall-clock checks; a power of
    #: two so the modulo compiles to a mask.  Checking every event would
    #: put a syscall on the hot path.
    _WALL_CHECK_EVERY = 4096

    def set_wall_deadline(self, budget_s: Optional[float]) -> None:
        """Arm (or clear, with None) a real-time budget for :meth:`run`.

        Once armed, :meth:`run` raises :class:`WallClockExceeded` the next
        time it notices ``budget_s`` seconds of wall-clock time have
        elapsed.  The check is cooperative (every ``_WALL_CHECK_EVERY``
        events), so overshoot is bounded by the cost of that many events.
        The deadline and the count toward the next check survive across
        :meth:`run` calls — it is a budget for the whole scenario, not one
        run window, so a drain advanced in short windows is checked too.
        Arming restarts the count: the first check comes
        ``_WALL_CHECK_EVERY`` events later.
        """
        self._wall_countdown = self._WALL_CHECK_EVERY
        if budget_s is None:
            self._wall_deadline = None
        else:
            self._wall_deadline = _time.monotonic() + float(budget_s)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        ``seq``, if given, is a number from :attr:`take_seq`: the event
        keeps the queue position of that reservation (see
        :meth:`EventQueue.push`).
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time!r}, current time is {self.now!r}"
            )
        return self._queue.push(time, callback, args, priority, seq)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event if it is still pending (None and fired are no-ops).

        This is the preferred cancellation path: it keeps the queue's live
        count accurate, enabling heap compaction.
        """
        if event is not None and event.pending:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order.

        Args:
            until: Stop once the clock would pass this time; the clock is
                then set exactly to ``until``.  If None, run until the event
                queue drains.

        Returns:
            The simulation time at which the run ended.
        """
        # Hot loop: the heap walk, the firing state flip and the callback
        # are inlined, and the wall-clock gate is a plain countdown — the
        # per-event kernel overhead is one heappop plus bookkeeping.  The
        # heap is aliased once: the queue only ever mutates it in place.
        queue = self._queue
        heap = queue._heap
        heappop = _heapq.heappop
        pending = Event._PENDING
        fired = Event._FIRED
        limit = _math.inf if until is None else until
        check_every = self._WALL_CHECK_EVERY
        countdown = self._wall_countdown
        events_processed = 0
        # Pause the cyclic collector for the duration of the loop: the hot
        # allocations (events, heap tuples, arrivals, frames) are acyclic
        # and die by refcount, so generational scans only add per-event
        # overhead.  The caller's collector state is restored on exit.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        wall_start = _time.perf_counter()
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event is not None and event._state != pending:
                    heappop(heap)  # lazily dropped cancellation
                    continue
                if entry[0] > limit:
                    break  # left in the heap for the next run window
                heappop(heap)
                queue._live -= 1
                self.now = entry[0]
                self._entry = entry
                events_processed += 1
                countdown -= 1
                if countdown == 0:
                    countdown = check_every
                    if (
                        self._wall_deadline is not None
                        and _time.monotonic() > self._wall_deadline
                    ):
                        self.events_processed += events_processed
                        events_processed = 0
                        raise WallClockExceeded(
                            f"wall-clock budget exhausted at t={self.now:.3f}s "
                            f"({self.events_processed} events)"
                        )
                if event is None:
                    entry[4](*entry[5])
                else:
                    event._state = fired
                    event.callback(*event.args)
            else:
                queue._live = 0
            self._entry = None
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._wall_countdown = countdown
            self.events_processed += events_processed
            self.wall_time_s += _time.perf_counter() - wall_start
            if gc_was_enabled:
                _gc.enable()
        if self.run_exit_hooks:
            frontier = (_math.inf,) * 3 if until is None else self.frontier()
            for hook in self.run_exit_hooks:
                latest = hook(frontier)
                if latest is not None and latest > self.now:
                    self.now = latest
        return self.now

    def frontier(self) -> Tuple[float, ...]:
        """The queue key ``(time, priority, seq)`` processing has reached.

        Inside a callback this is the key of the event being processed:
        every event ordered before it has run, none after it has.  Between
        runs it is ``(now, inf, inf)``: every event up to ``now`` ran.
        """
        entry = self._entry
        if entry is None:
            return (self.now, _math.inf, _math.inf)
        return entry[:3]
