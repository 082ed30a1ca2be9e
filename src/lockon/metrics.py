"""Evaluation calculators: detection metrics and run-level mission reports.

``confusion_metrics`` turns TP/FP/FN counts into precision, recall and F1.
``parse_jsonl`` reads an event log's JSON Lines, and ``summarize_run`` reads
the log in one pass into the run's timeline: each engaged target's
assignment, signal, containment streak and lock ticks, every FSM transition
and the terminal tick. Each outcome (Locked with its time-to-lock, or Failed
with a reason) is a property of its timeline, which ``as_dict`` projects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bus as topics
from .payloads import parse_json
from .world import finite_float


class MetricsError(Exception):
    """Metrics are undefined or the event log is unusable."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be >= 0")


@dataclass(frozen=True)
class DetectionMetrics:
    precision: float
    recall: float
    f1: float

    def as_dict(self, digits: int = 4) -> dict[str, float]:
        return {
            "precision": round(self.precision, digits),
            "recall": round(self.recall, digits),
            "f1": round(self.f1, digits),
        }


def confusion_metrics(counts: ConfusionCounts) -> DetectionMetrics:
    """precision = TP/(TP+FP), recall = TP/(TP+FN), F1 = 2TP/(2TP+FP+FN).

    All three are 0 when TP = 0 but mistakes exist; all-zero counts are
    undefined and rejected.
    """
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    if tp == 0 and fp == 0 and fn == 0:
        raise MetricsError("metrics are undefined for all-zero counts")
    if tp == 0:
        return DetectionMetrics(0.0, 0.0, 0.0)
    return DetectionMetrics(
        precision=tp / (tp + fp),
        recall=tp / (tp + fn),
        f1=2 * tp / (2 * tp + fp + fn),
    )


REASON_NEVER_DETECTED = "never_detected"
REASON_CONTAINMENT = "containment_never_reached"
REASON_TIMEOUT = "mission_timeout"


@dataclass(frozen=True)
class TargetOutcome:
    """One engaged target's timeline, in ticks, and the outcome it implies.

    ``assigned`` is the tick of its first /telemetry/response, ``signal`` of
    the first /signal/process_image after that (None if none came),
    ``streaks`` the first and last offset tick of each containment streak,
    and ``locks`` every /lock tick. ``dt`` is the run's seconds per tick.
    """

    target_id: str
    dt: float
    assigned: int
    signal: int | None = None
    streaks: tuple[tuple[int, int], ...] = ()
    locks: tuple[int, ...] = ()

    @property
    def locked(self) -> bool:
        return bool(self.locks)

    @property
    def time_to_lock(self) -> float | None:
        """Seconds from the signal to the first lock; a retried post's later lock moves nothing."""
        return (self.locks[0] - self.signal) * self.dt if self.locks else None

    @property
    def reason(self) -> str | None:
        if self.locks:
            return None
        if self.signal is None:
            return REASON_TIMEOUT
        return REASON_CONTAINMENT if self.streaks else REASON_NEVER_DETECTED

    @property
    def max_containment_s(self) -> float:
        return max((last - first for first, last in self.streaks), default=0) * self.dt

    def as_dict(self) -> dict:
        return {
            "target_id": self.target_id,
            "outcome": "locked" if self.locked else "failed",
            "time_to_lock": self.time_to_lock,
            "reason": self.reason,
            "max_containment_s": round(self.max_containment_s, 4),
        }


@dataclass(frozen=True)
class RunReport:
    per_target: tuple[TargetOutcome, ...]
    topic_counts: dict[str, int]
    terminated_by: str
    transitions: tuple[tuple[int, str, str], ...]  # (tick, from, to) of each fsm entry
    end_tick: int

    def as_dict(self) -> dict:
        return {
            "per_target": [t.as_dict() for t in self.per_target],
            "topic_counts": dict(sorted(self.topic_counts.items())),
            "terminated_by": self.terminated_by,
        }


# Ticks up to 2**53 convert to floats exactly; with dt * 2**53 finite, no
# tick span times dt overflows either.
_MAX_TICK = 2**53


def _tick(value) -> int:
    if type(value) is not int or not 0 <= value <= _MAX_TICK:
        raise MetricsError(f"tick {value!r:.40} is not an integer in [0, 2**53]")
    return value


def _target_id(payload: dict, topic: str) -> str:
    target_id = payload.get("target_id")
    if type(target_id) is not str:
        raise MetricsError(f"a {topic} message without a target_id string")
    return target_id


def _positive(meta: dict, key: str) -> float:
    """A finite, positive number from the meta header."""
    try:
        value = finite_float(meta.get(key))
    except ValueError as exc:
        raise MetricsError(f"meta {key}: {exc}") from None
    if value <= 0.0:
        raise MetricsError(f"meta {key} must be > 0")
    return value


def parse_jsonl(text: str) -> list[dict]:
    """Parse each non-blank line with the strict payload parser; MetricsError if one fails.

    Lines end at "\n" only: ``str.splitlines`` would also split at U+2028 and
    other separators that JSON allows unescaped inside a string.
    """
    entries = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                entries.append(parse_json(line))
            except ValueError as exc:
                raise MetricsError(f"line {number}: {exc}") from None
    return entries


def summarize_run(entries: list[dict]) -> RunReport:
    """Build a RunReport, the run's timeline, from parsed event-log entries in one pass.

    The log must open with the meta line written by the scheduler and close
    with a terminal entry (land, timeout, or crash); anything else is
    rejected as an incomplete run. Messages the scheduler logged as
    malformed (their payload was not strict JSON) are skipped. A log the
    scheduler could not have written raises MetricsError: an entry that is
    not an object, a dt that is not positive and finite or so large that
    tick spans overflow, a message without a topic or an integer tick, a
    payload that is not an object, an assignment or lock without a target
    id, an fsm entry without an integer tick or from/to strings, a terminal
    entry without an integer tick.

    Targets are reported in order of first assignment. A signal or an
    offset counts toward the target assigned most recently before it in
    the log; one before any assignment is ignored. A skipped frame ends a
    containment streak. Every /lock with a target's id is kept; the first
    is its lock.
    """
    meta = entries[0] if entries else None
    if type(meta) is not dict or meta.get("kind") != "meta":
        raise MetricsError("event log has no meta header")
    dt = _positive(meta, "dt")
    if not math.isfinite(dt * _MAX_TICK):
        raise MetricsError("meta dt is so large that tick spans overflow the float range")
    frame_ratio = _positive(meta, "frame_period") / dt
    if not math.isfinite(frame_ratio):
        raise MetricsError("meta frame_period / dt overflows the float range")
    frame_ticks = max(1, round(frame_ratio))

    end = current = runs = None  # the target assigned last, and its streaks
    topic_counts: dict[str, int] = {}
    assigned: dict[str, int] = {}  # target id -> tick of its first assignment, in that order
    signals: dict[str, int] = {}
    streaks: dict[str, list[list[int]]] = {}  # target id -> [first, last] offset tick per streak
    locks: dict[str, list[int]] = {}
    transitions = []
    for entry in entries:
        if type(entry) is not dict:
            raise MetricsError("every event-log entry must be an object")
        kind = entry.get("kind")
        if kind == "msg":
            if entry.get("malformed"):
                continue
            topic, tick, payload = entry.get("topic"), entry.get("tick"), entry.get("payload")
            if type(topic) is not str or type(tick) is not int or not 0 <= tick <= _MAX_TICK:
                raise MetricsError("every message needs a topic string and a tick in [0, 2**53]")
            if payload is not None and type(payload) is not dict:
                raise MetricsError(f"a {topic} payload must be an object or null")
            topic_counts[topic] = topic_counts.get(topic, 0) + 1
            payload = payload or {}
            if topic == topics.IMAGE_MESSAGE:
                offset_tick = _tick(payload.get("tick", tick))
                if runs and 0 <= offset_tick - runs[-1][1] <= frame_ticks:
                    runs[-1][1] = offset_tick
                elif runs is not None:
                    runs.append([offset_tick, offset_tick])
            elif topic == topics.TELEMETRY_RESPONSE and payload.get("has_target"):
                target_id = _target_id(payload, topic)
                if target_id not in assigned:
                    assigned[target_id], current = tick, target_id
                    runs = streaks[target_id] = []
            elif topic == topics.LOCK:
                locks.setdefault(_target_id(payload, topic), []).append(tick)
            elif topic == topics.SIGNAL_PROCESS_IMAGE and current is not None:
                signals.setdefault(current, tick)
        elif kind == "fsm":
            old, new = entry.get("from"), entry.get("to")
            if type(old) is not str or type(new) is not str:
                raise MetricsError("an fsm entry needs from and to strings")
            transitions.append((_tick(entry.get("tick")), old, new))
        elif kind == "end" and end is None:
            end = entry
    if end is None:
        raise MetricsError("event log has no terminal entry (incomplete run)")
    terminated_by = end.get("terminated_by")
    if type(terminated_by) is not str:
        raise MetricsError("the terminal entry has no terminated_by text")

    outcomes = []
    for target_id, tick in assigned.items():
        signal, target_locks = signals.get(target_id), tuple(locks.get(target_id, ()))
        if target_locks and signal is None:
            raise MetricsError(f"lock on {target_id!r} without a preceding signal")
        target_streaks = tuple(map(tuple, streaks[target_id]))
        outcomes.append(TargetOutcome(target_id, dt, tick, signal, target_streaks, target_locks))
    return RunReport(
        per_target=tuple(outcomes),
        topic_counts=topic_counts,
        terminated_by=terminated_by,
        transitions=tuple(transitions),
        end_tick=_tick(end.get("tick")),
    )
