"""Evaluation calculators: detection metrics and run-level mission reports.

``confusion_metrics`` turns TP/FP/FN counts into precision, recall and F1.
``summarize_run`` classifies each engaged target from a completed event log
(Locked with its time-to-lock, or Failed with a reason) and measures the
longest continuous containment streak per target.
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


def _streak_spans(offset_ticks: list[int], frame_ticks: int, dt: float) -> list[float]:
    """Durations of maximal runs of camera messages with no skipped frame."""
    if not offset_ticks:
        return []
    spans = []
    start = prev = offset_ticks[0]
    for tick in offset_ticks[1:]:
        if tick - prev > frame_ticks:
            spans.append((prev - start) * dt)
            start = tick
        prev = tick
    spans.append((prev - start) * dt)
    return spans


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
    """Build a RunReport from parsed event-log entries.

    The log must open with the meta line written by the scheduler and close
    with a terminal entry (land, timeout, or crash); anything else is
    rejected as an incomplete run. Messages the scheduler logged as
    malformed (their payload was not strict JSON) are skipped. A log the
    scheduler could not have written raises MetricsError: an entry that is
    not an object, a dt that is not positive and finite or so large that
    tick spans overflow, a message without a topic or an integer tick, a
    payload that is not an object, an assignment or lock without a target
    id.
    """
    meta = end = None
    messages = []
    topic_counts: dict[str, int] = {}
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
            messages.append(entry)
            topic_counts[topic] = topic_counts.get(topic, 0) + 1
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

    # Engagements in order of first assignment.
    engaged: list[tuple[str, int]] = []  # (target_id, tick of first assignment)
    seen: set[str] = set()
    locks: dict[str, int] = {}
    signal_ticks: list[int] = []
    offset_ticks_all: list[int] = []
    for message in messages:
        topic, payload = message["topic"], message.get("payload") or {}
        if topic == topics.IMAGE_MESSAGE:
            offset_ticks_all.append(_tick(payload.get("tick", message["tick"])))
        elif topic == topics.TELEMETRY_RESPONSE and payload.get("has_target"):
            target_id = _target_id(payload, topic)
            if target_id not in seen:
                seen.add(target_id)
                engaged.append((target_id, message["tick"]))
        elif topic == topics.LOCK:
            locks[_target_id(payload, topic)] = message["tick"]
        elif topic == topics.SIGNAL_PROCESS_IMAGE:
            signal_ticks.append(message["tick"])

    outcomes = []
    for index, (target_id, start_tick) in enumerate(engaged):
        window_end = engaged[index + 1][1] if index + 1 < len(engaged) else float("inf")
        signal = next((t for t in signal_ticks if start_tick <= t < window_end), None)
        offsets = [t for t in offset_ticks_all if start_tick <= t < window_end]
        streaks = _streak_spans(offsets, frame_ticks, dt)
        max_containment = max(streaks, default=0.0)
        lock_tick = locks.get(target_id)
        if lock_tick is not None:
            if signal is None:
                raise MetricsError(f"lock on {target_id!r} without a preceding signal")
            outcomes.append(
                TargetOutcome(
                    target_id=target_id,
                    locked=True,
                    time_to_lock=(lock_tick - signal) * dt,
                    max_containment_s=max_containment,
                )
            )
        else:
            if signal is None:
                reason = REASON_TIMEOUT
            elif not offsets:
                reason = REASON_NEVER_DETECTED
            else:
                reason = REASON_CONTAINMENT
            outcomes.append(
                TargetOutcome(
                    target_id=target_id,
                    locked=False,
                    reason=reason,
                    max_containment_s=max_containment,
                )
            )

    return RunReport(
        per_target=tuple(outcomes),
        topic_counts=topic_counts,
        terminated_by=terminated_by,
    )
