"""Evaluation calculators: detection metrics and run-level mission reports.

``confusion_metrics`` turns TP/FP/FN counts into precision, recall and F1.
``summarize_run`` classifies each engaged target from a completed event log
(Locked with its time-to-lock, or Failed with a reason) and measures the
longest continuous containment streak per target, in one pass over the log:
each /signal/process_image and /image/message counts toward the target
assigned most recently before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bus as topics
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
    target_id: str
    locked: bool
    time_to_lock: float | None = None
    reason: str | None = None
    max_containment_s: float = 0.0

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


def summarize_run(entries: list[dict]) -> RunReport:
    """Build a RunReport from parsed event-log entries in one pass.

    The log must open with the meta line written by the scheduler and close
    with a terminal entry (land, timeout, or crash); anything else is
    rejected as an incomplete run. Messages the scheduler logged as
    malformed (their payload was not strict JSON) are skipped. A log the
    scheduler could not have written raises MetricsError: an entry that is
    not an object, a dt that is not positive and finite or so large that
    tick spans overflow, a message without a topic or an integer tick, a
    payload that is not an object, an assignment or lock without a target
    id.

    Targets are reported in order of first assignment. A signal or an
    offset counts toward the target assigned most recently before it in
    the log; one before any assignment is ignored. A target locks at its
    first /lock: a later one, as a retried post logs, moves nothing.
    """
    meta = end = None
    topic_counts: dict[str, int] = {}
    # target id -> [first signal tick, offset ticks], in order of first assignment
    engaged: dict[str, list] = {}
    current: list | None = None
    locks: dict[str, int] = {}
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
                if current is not None:
                    current[1].append(offset_tick)
            elif topic == topics.TELEMETRY_RESPONSE and payload.get("has_target"):
                target_id = _target_id(payload, topic)
                if target_id not in engaged:
                    current = engaged[target_id] = [None, []]
            elif topic == topics.LOCK:
                locks.setdefault(_target_id(payload, topic), tick)
            elif topic == topics.SIGNAL_PROCESS_IMAGE and current is not None and current[0] is None:
                current[0] = tick
        elif kind == "meta" and meta is None:
            meta = entry
        elif kind == "end" and end is None:
            end = entry
    if meta is None:
        raise MetricsError("event log has no meta header")
    if end is None:
        raise MetricsError("event log has no terminal entry (incomplete run)")
    terminated_by = end.get("terminated_by")
    if type(terminated_by) is not str:
        raise MetricsError("the terminal entry has no terminated_by text")
    dt = _positive(meta, "dt")
    if not math.isfinite(dt * _MAX_TICK):
        raise MetricsError("meta dt is so large that tick spans overflow the float range")
    frame_ratio = _positive(meta, "frame_period") / dt
    if not math.isfinite(frame_ratio):
        raise MetricsError("meta frame_period / dt overflows the float range")
    frame_ticks = max(1, round(frame_ratio))

    outcomes = []
    for target_id, (signal, offsets) in engaged.items():
        # The longest run of camera messages with no skipped frame, in ticks.
        longest = streak = 0
        for prev, tick in zip(offsets, offsets[1:]):
            streak = streak + tick - prev if tick - prev <= frame_ticks else 0
            longest = max(longest, streak)
        lock_tick = locks.get(target_id)
        time_to_lock = reason = None
        if lock_tick is not None:
            if signal is None:
                raise MetricsError(f"lock on {target_id!r} without a preceding signal")
            time_to_lock = (lock_tick - signal) * dt
        elif signal is None:
            reason = REASON_TIMEOUT
        elif not offsets:
            reason = REASON_NEVER_DETECTED
        else:
            reason = REASON_CONTAINMENT
        outcomes.append(
            TargetOutcome(
                target_id=target_id,
                locked=lock_tick is not None,
                time_to_lock=time_to_lock,
                reason=reason,
                max_containment_s=longest * dt,
            )
        )

    return RunReport(
        per_target=tuple(outcomes),
        topic_counts=topic_counts,
        terminated_by=terminated_by,
    )
