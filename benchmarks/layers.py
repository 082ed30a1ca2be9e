"""Per-layer tracing of lockon from outside the program.

``Tracer`` replaces each public function or method in ``TARGETS`` with a
wrapper that opens a span on entry and closes it on exit, and puts the
originals back when it is removed. Functions that another module imported
by name are wrapped where the caller looks them up at call time: the
scheduler calls ``world.step`` through ``lockon.runner.world_step``, so that
is the attribute replaced.

A span's self time is its duration minus the time its child spans cover.
Spans are folded into per-label totals (calls, total ns, child ns) as they
close, per thread, so a long traced run holds a few hundred numbers rather
than millions of spans; the totals are merged when the run ends. Hooks
count layer outcomes (offsets emitted, deliveries, LOCK entries, ...) at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import weakref
from collections import Counter

SCHEMAS = ("TelemetryRequest", "TelemetryResponse", "LockReport", "OffsetMessage", "CrashReport")

# label -> (module, attribute path within the module)
TARGETS: dict[str, tuple[str, str]] = {
    "world.step": ("lockon.runner", "world_step"),
    "world.project_to_camera": ("lockon.runner", "project_to_camera"),
    "vision.step": ("lockon.vision", "VisionNode.step"),
    "vision.process_frame": ("lockon.vision", "process_frame"),
    "autonomy.step": ("lockon.autonomy", "AutonomousNode.step"),
    "autonomy.handle_event": ("lockon.autonomy", "handle_event"),
    "bus.publish": ("lockon.bus", "MessageBus.publish"),
    "bus.deliver": ("lockon.bus", "MessageBus.deliver"),
    "bus.drain": ("lockon.bus", "MessageBus.drain"),
    **{
        f"payloads.{schema}.{method}": ("lockon.payloads", f"{schema}.{method}")
        for schema in SCHEMAS
        for method in ("encode", "decode")
    },
    "proxy.step": ("lockon.proxy", "ProxyNode.step"),
    "proxy.transport.post": ("lockon.proxy", "InProcessTransport.post"),
    "server.handle_telemetry": ("lockon.server", "MissionStore.handle_telemetry"),
    "server.handle_lock_report": ("lockon.server", "MissionStore.handle_lock_report"),
    "server.handle_crash_report": ("lockon.server", "MissionStore.handle_crash_report"),
    "server.handle_seed": ("lockon.server", "MissionStore.handle_seed"),
    "server.query_records": ("lockon.server", "MissionStore.query_records"),
    "metrics.summarize_run": ("lockon.runner", "summarize_run"),
    "runner.run": ("lockon.runner", "run"),
    "scenario.scenario_from_dict": ("lockon.scenario", "scenario_from_dict"),
    "scenario.load_scenario": ("lockon.scenario", "load_scenario"),
}

# Per-layer outcome metrics beside the per-function ones: name -> unit.
OUTCOMES = {
    "vision.offsets_per_active_frame": "ratio",
    "bus.deliveries_per_publish": "ratio",
    "autonomy.lock_entries_per_target": "ratio",
    "proxy.retries": "count",
    "proxy.degraded_events": "count",
    "server.records_scanned": "count",
}


class _ThreadState:
    __slots__ = ("stack", "stats", "counters", "seen")

    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        self.stats: dict[str, list[int]] = {}  # label -> [calls, total ns, child ns]
        self.counters: Counter = Counter()
        self.seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _count_frame(state: _ThreadState, args: tuple, result) -> None:
    if args[0].active:
        state.counters["vision.active_frames"] += 1
        if result[1] is not None:
            state.counters["vision.offsets"] += 1


def _count_deliveries(state: _ThreadState, args: tuple, result) -> None:
    state.counters["bus.deliveries"] += result


def _count_lock_entry(state: _ThreadState, args: tuple, result) -> None:
    if result[0].value == "LOCK" and args[0].value != "LOCK":
        state.counters["autonomy.lock_entries"] += 1


def _count_targets(state: _ThreadState, args: tuple, result) -> None:
    state.counters["runner.targets"] += len(result.report.per_target)


def _count_degraded(state: _ThreadState, args: tuple, result) -> None:
    node = args[0]
    state.counters["proxy.degraded_events"] += node.degraded_events - state.seen.get(node, 0)
    state.seen[node] = node.degraded_events


def _count_scanned(state: _ThreadState, args: tuple, result) -> None:
    state.counters["server.records_scanned"] += args[0].record_count()


HOOKS = {
    "vision.process_frame": _count_frame,
    "bus.deliver": _count_deliveries,
    "autonomy.handle_event": _count_lock_entry,
    "runner.run": _count_targets,
    "proxy.step": _count_degraded,
    "server.query_records": _count_scanned,
}


class Tracer:
    """Wraps every target on ``install`` and restores the originals on ``remove``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, label: str, func):
        clock = time.perf_counter_ns
        hook = HOOKS.get(label)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            child = [0]
            stack.append(child)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                state.counters[f"{label}.errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = state.stats.get(label)
                if entry is None:
                    entry = state.stats[label] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += child[0]
            if hook is not None:
                hook(state, args, result)
            return result

        return traced

    def install(self) -> None:
        for label, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(owner, owner_path, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(label, original.__func__))
            else:
                replacement = self._wrap(label, original)
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def snapshot(self) -> dict:
        """Totals merged over threads: {"stats": {label: [calls, ns, child ns]}, "counters": {}}."""
        with self._states_lock:
            states = list(self._states)
        return merge([{"stats": state.stats, "counters": state.counters} for state in states])


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots, e.g. one per mission-server process."""
    stats: dict[str, list[int]] = {}
    counters: Counter = Counter()
    for snap in snapshots:
        for label, entry in snap["stats"].items():
            merged = stats.setdefault(label, [0, 0, 0])
            for index, value in enumerate(entry):
                merged[index] += value
        counters.update(snap["counters"])
    return {"stats": stats, "counters": dict(counters)}


def metric_units() -> dict[str, str]:
    """Every per-layer metric ``layer_metrics`` reports, with its unit."""
    units: dict[str, str] = {}
    for label in TARGETS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_ms"] = "ms"
        units[f"{label}.ns_per_call"] = "ns"
    units.update(OUTCOMES)
    return units


def layer_metrics(snap: dict) -> dict[str, float]:
    """Calls, self time and self ns per call for each target, plus OUTCOMES."""
    stats, counters = snap["stats"], snap["counters"]
    out: dict[str, float] = {}
    for label in TARGETS:
        calls, total_ns, child_ns = stats.get(label, (0, 0, 0))
        self_ns = total_ns - child_ns
        out[f"{label}.calls"] = calls
        out[f"{label}.self_ms"] = self_ns / 1e6
        out[f"{label}.ns_per_call"] = self_ns / calls if calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out["vision.offsets_per_active_frame"] = ratio(
        counters.get("vision.offsets", 0), counters.get("vision.active_frames", 0)
    )
    out["bus.deliveries_per_publish"] = ratio(
        counters.get("bus.deliveries", 0), out["bus.publish.calls"]
    )
    out["autonomy.lock_entries_per_target"] = ratio(
        counters.get("autonomy.lock_entries", 0), counters.get("runner.targets", 0)
    )
    out["proxy.retries"] = counters.get("proxy.transport.post.errors", 0)
    out["proxy.degraded_events"] = counters.get("proxy.degraded_events", 0)
    out["server.records_scanned"] = counters.get("server.records_scanned", 0)
    return out
