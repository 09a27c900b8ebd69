"""Outside-in per-layer tracer for the benchmark's traced pass.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces named entry points -- class attributes and module functions --
with timing wrappers, and re-wraps every callback handed to the DES event
queue on its way in, so each event is charged to the layer (the module)
that defines its callback.  Spans nest on a per-thread stack; a layer's
*self time* is the wall time of its spans minus the time of the spans they
contain.

Entry points that no longer exist (renamed or deleted by a later change)
are listed in :attr:`Tracer.missing` and skipped, never fatal.  The same
holds for the counters read from a finished :class:`Scenario`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Route the traced service launcher adds: zero the tracer's accumulators.
RESET_PATH = "/__bench__/reset"

#: Every layer the tracer reports, in report order.
LAYERS: Tuple[str, ...] = (
    "des",
    "phy.channel",
    "phy.vectorized",
    "phy.modem",
    "acoustic",
    "mac",
    "core.ewmac",
    "core.ewmac.schedule",
    "net",
    "topology",
    "traffic",
    "metrics",
    "experiments",
    "experiments.setup",
    "experiments.engine",
    "service.api",
    "service.store",
    "service.worker",
    "other",
)

#: Module prefix -> layer, for event callbacks (first match wins).
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.des", "des"),
    ("repro.phy.modem", "phy.modem"),
    ("repro.phy.vectorized", "phy.vectorized"),
    ("repro.phy.linkcache", "phy.vectorized"),
    ("repro.phy", "phy.channel"),
    ("repro.acoustic", "acoustic"),
    ("repro.mac", "mac"),
    ("repro.core.ewmac", "core.ewmac"),
    ("repro.net", "net"),
    ("repro.topology", "topology"),
    ("repro.traffic", "traffic"),
    ("repro.metrics", "metrics"),
    ("repro.energy", "metrics"),
    ("repro.experiments.engine", "experiments.engine"),
    ("repro.experiments", "experiments"),
    ("repro.service.api", "service.api"),
    ("repro.service.store", "service.store"),
    ("repro.service.worker", "service.worker"),
)

_STORE_METHODS = (
    "submit", "claim", "heartbeat", "finish", "fail", "release",
    "expire_leases", "get", "list_jobs", "counts", "add_progress",
    "progress_since",
)

#: ``(module, attribute path, layer)`` of every directly called entry point.
#: Event callbacks are not listed: the queue wrappers charge them.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.des.simulator", "Simulator.run", "des"),
    ("repro.phy.modem", "AcousticModem.transmit", "phy.modem"),
    ("repro.acoustic.sinr", "LinkBudget.sinr_db_from_levels", "acoustic"),
    ("repro.acoustic.per", "PerModel.is_successful", "acoustic"),
    ("repro.phy.channel", "AcousticChannel.broadcast", "phy.channel"),
    ("repro.phy.channel", "AcousticChannel.neighbors_of", "phy.channel"),
    ("repro.phy.channel", "AcousticChannel.distance_m", "phy.channel"),
    ("repro.phy.channel", "AcousticChannel.propagation_delay_s", "phy.channel"),
    ("repro.phy.channel", "AcousticChannel.note_position_change", "phy.channel"),
    ("repro.phy.vectorized", "VectorLinkKernel.row", "phy.vectorized"),
    ("repro.phy.vectorized", "VectorLinkKernel.deliveries", "phy.vectorized"),
    ("repro.phy.vectorized", "VectorLinkKernel.ensure_pair", "phy.vectorized"),
    ("repro.phy.vectorized", "VectorLinkKernel.invalidate", "phy.vectorized"),
    ("repro.phy.linkcache", "LinkStateCache.link", "phy.vectorized"),
    ("repro.phy.linkcache", "LinkStateCache.in_range_ids", "phy.vectorized"),
    ("repro.core.ewmac.protocol", "EwMac.on_overheard", "core.ewmac"),
    ("repro.core.ewmac.protocol", "EwMac.on_contention_lost", "core.ewmac"),
    ("repro.core.ewmac.protocol", "EwMac.handle_protocol_frame", "core.ewmac"),
    ("repro.core.ewmac.schedule", "NeighborScheduleTracker.protect", "core.ewmac.schedule"),
    ("repro.core.ewmac.schedule", "NeighborScheduleTracker.purge", "core.ewmac.schedule"),
    ("repro.core.ewmac.schedule", "NeighborScheduleTracker.is_send_safe", "core.ewmac.schedule"),
    ("repro.core.ewmac.schedule", "NeighborScheduleTracker.blocking_conflicts", "core.ewmac.schedule"),
    # The metric functions as the scenario module imported them.
    ("repro.experiments.scenario", "network_throughput", "metrics"),
    ("repro.experiments.scenario", "network_energy", "metrics"),
    ("repro.experiments.scenario", "network_overhead", "metrics"),
    ("repro.experiments.scenario", "efficiency_index", "metrics"),
    ("repro.experiments.scenario", "network_utilization", "metrics"),
    ("repro.experiments.scenario", "mean_delivery_delay_s", "metrics"),
    ("repro.experiments.engine", "run_request", "experiments.engine"),
    # The worker imported run_request by name, so patch its binding too.
    ("repro.service.worker", "run_request", "experiments.engine"),
    ("repro.service.api", "_Handler.do_GET", "service.api"),
    ("repro.service.api", "_Handler.do_POST", "service.api"),
    ("repro.service.worker", "WorkerPool._execute", "service.worker"),
) + tuple(
    ("repro.service.store", f"JobStore.{name}", "service.store") for name in _STORE_METHODS
)

#: Counters read from each finished Scenario: name -> reader.
_SCENARIO_COUNTERS: Tuple[Tuple[str, Callable[[Any], float]], ...] = (
    ("des.events", lambda sc: sc.sim.events_processed),
    ("des.bulk_events", lambda sc: sc.channel.stats.bulk_events),
    ("phy.channel.broadcasts", lambda sc: sc.channel.stats.broadcasts),
    ("phy.channel.deliveries", lambda sc: sc.channel.stats.deliveries),
    ("phy.vectorized.cache_hits", lambda sc: sc.channel.stats.cache_hits),
    ("phy.vectorized.cache_misses", lambda sc: sc.channel.stats.cache_misses),
    ("phy.vectorized.rows_refreshed", lambda sc: sc.channel.stats.rows_refreshed),
    ("phy.vectorized.grid_candidates", lambda sc: sc.channel.stats.grid_candidates),
    (
        "phy.vectorized.rows_skipped",
        lambda sc: sc.channel.stats.rows_skipped_delta + sc.channel.stats.rows_skipped_inreach,
    ),
    (
        "phy.modem.arrivals",
        lambda sc: sum(
            n.modem.stats.rx_ok + n.modem.stats.rx_half_duplex
            + n.modem.stats.rx_collision + n.modem.stats.rx_noise
            for n in sc.nodes
        ),
    ),
    ("phy.modem.decoded_ok", lambda sc: sum(n.modem.stats.rx_ok for n in sc.nodes)),
    ("mac.handshakes_started", lambda sc: sum(m.stats.handshakes_started for m in sc.macs)),
    ("mac.handshakes_completed", lambda sc: sum(m.stats.handshakes_completed for m in sc.macs)),
    (
        "core.ewmac.extra_requested",
        lambda sc: sum(m.extra_stats.requested for m in sc.macs if hasattr(m, "extra_stats")),
    ),
    (
        "core.ewmac.extra_completed",
        lambda sc: sum(m.extra_stats.completed for m in sc.macs if hasattr(m, "extra_stats")),
    ),
)


def module_layer(module: Optional[str]) -> str:
    """The layer a module's code is charged to."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class _ThreadState:
    """One thread's span stack and accumulators (merged by :meth:`report`)."""

    __slots__ = ("stack", "self_s", "calls", "children", "names", "name_s")

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_seconds, layer]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Spans opened directly inside a span of this layer.
        self.children: Dict[str, int] = defaultdict(int)
        #: Calls and inclusive seconds per named entry point.
        self.names: Dict[str, int] = defaultdict(int)
        self.name_s: Dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        for table in (self.self_s, self.calls, self.children, self.names, self.name_s):
            table.clear()


class Tracer:
    """Per-layer span accounting across threads.

    Args:
        clock: Seconds-valued clock; tests substitute a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_cache: Dict[Optional[str], str] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def span(self, layer: str, name: Optional[str], fn: Callable, args: tuple, kwargs=None):
        """Call ``fn(*args, **kwargs)`` inside a span charged to ``layer``."""
        state = self._state()
        stack = state.stack
        frame = [0.0, layer]
        stack.append(frame)
        clock = self._clock
        start = clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            elapsed = clock() - start
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                state.children[parent[1]] += 1
            state.self_s[layer] += elapsed - frame[0]
            state.calls[layer] += 1
            if name is not None:
                state.names[name] += 1
                state.name_s[name] += elapsed

    def wrap(self, layer: str, fn: Callable, name: Optional[str] = None) -> Callable:
        """``fn`` with every call traced as a span of ``layer``."""
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(layer, name, fn, args, kwargs)

        traced._bench_layer = layer  # type: ignore[attr-defined]
        return traced

    def event(self, callback: Callable) -> Callable:
        """Wrap one DES callback so its event is charged to its module's layer."""
        func = getattr(callback, "__func__", None) or getattr(callback, "func", callback)
        if getattr(func, "_bench_layer", None) is not None:
            return callback  # a patched entry point already opens a span
        module = getattr(func, "__module__", None)
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = module_layer(module)
        span = self.span

        def fire(*args):
            return span(layer, None, callback, args)

        return fire

    def reset(self) -> None:
        """Zero every accumulator (open spans keep their stacks)."""
        with self._lock:
            for state in self._states:
                state.reset()
            self.counters.clear()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def _resolve(self, module_name: str, path: str) -> Tuple[Optional[object], str, Any]:
        try:
            owner: object = importlib.import_module(module_name)
        except ImportError:
            return None, path, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, attr, None
        # Only attributes the owner defines itself: an inherited method
        # belongs to the base class's layer.
        return owner, attr, getattr(owner, "__dict__", {}).get(attr)

    def _patch(self, module_name: str, path: str, layer: str, after=None) -> None:
        owner, attr, original = self._resolve(module_name, path)
        if not callable(original) or getattr(original, "_bench_layer", None) is not None:
            self.missing.append(f"{module_name}:{path}")
            return
        name = path
        if after is None:
            self._replace(owner, attr, self.wrap(layer, original, name))
            return
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = span(layer, name, original, args, kwargs)
            after(args[0])
            return result

        traced._bench_layer = layer  # type: ignore[attr-defined]
        self._replace(owner, attr, traced)

    def _patch_queue(self) -> None:
        owner, _, push = self._resolve("repro.des.events", "EventQueue.push")
        _, _, push_plain = self._resolve("repro.des.events", "EventQueue.push_plain")
        _, _, push_bulk = self._resolve("repro.des.events", "EventQueue.push_bulk")
        if owner is None or not all(map(callable, (push, push_plain, push_bulk))):
            self.missing.append("repro.des.events:EventQueue.push*")
            return
        span = self.span
        event = self.event

        def traced_push(queue, time_s, callback, *rest, **kwargs):
            return span("des", "des.push", push, (queue, time_s, event(callback)) + rest, kwargs)

        def traced_push_plain(queue, time_s, callback, *rest, **kwargs):
            return span(
                "des", "des.push", push_plain, (queue, time_s, event(callback)) + rest, kwargs
            )

        def traced_push_bulk(queue, times, callbacks, *rest, **kwargs):
            wrapped = [event(callback) for callback in callbacks]
            return span("des", "des.push_bulk", push_bulk, (queue, times, wrapped) + rest, kwargs)

        for attr, value in (
            ("push", traced_push),
            ("push_plain", traced_push_plain),
            ("push_bulk", traced_push_bulk),
        ):
            self._replace(owner, attr, value)

    def _scenario_built(self, scenario: Any) -> None:
        """Split MAC receive handling from the modem's decode span."""
        for node in getattr(scenario, "nodes", ()):
            modem = getattr(node, "modem", None)
            for attr in ("on_receive", "on_rx_failure"):
                hook = getattr(modem, attr, None)
                if hook is not None:
                    setattr(modem, attr, self.wrap("mac", hook, f"mac.{attr}"))

    def _scenario_ran(self, scenario: Any) -> None:
        for name, read in _SCENARIO_COUNTERS:
            try:
                self.counters[name] += read(scenario)
            except (AttributeError, TypeError):
                if name not in self.missing:
                    self.missing.append(name)

    def install(self) -> "Tracer":
        """Wrap every entry point.  Call before any Scenario is built."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import first, so names bound by ``from x import y`` are originals.
        for module_name in sorted({entry[0] for entry in ENTRY_POINTS}):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # reported as missing by _patch
        self._patch_queue()
        for module_name, path, layer in ENTRY_POINTS:
            self._patch(module_name, path, layer)
        self._patch(
            "repro.experiments.scenario", "Scenario.__init__", "experiments.setup",
            after=self._scenario_built,
        )
        self._patch(
            "repro.experiments.scenario", "Scenario.run_steady_state", "experiments",
            after=self._scenario_ran,
        )
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Merged accumulators of every thread, as plain JSON."""
        merged: Dict[str, Dict[str, float]] = {
            key: defaultdict(float)
            for key in ("self_s", "calls", "children", "names", "name_s")
        }
        with self._lock:
            for state in self._states:
                for key, table in merged.items():
                    for name, value in list(getattr(state, key).items()):
                        table[name] += value
        out: Dict[str, object] = {key: dict(table) for key, table in merged.items()}
        out["counters"] = dict(self.counters)
        out["missing"] = list(self.missing)
        return out


def calibrate_span_cost(iterations: int = 100_000) -> float:
    """Seconds one event span adds over a plain call (median of 5 trials)."""

    def noop() -> None:
        return None

    traced = Tracer().event(noop)
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(iterations):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(iterations):
            traced()
        costs.append((clock() - start - plain) / iterations)
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)
