"""Evaluation calculators: detection metrics and run-level mission reports.

``confusion_metrics`` turns TP/FP/FN counts into precision, recall and F1.
``summarize_run`` classifies each engaged target from a completed event log
(Locked with its time-to-lock, or Failed with a reason) and measures the
longest continuous containment streak per target.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bus as topics


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


def summarize_run(entries: list[dict]) -> RunReport:
    """Build a RunReport from parsed event-log entries.

    The log must open with the meta line written by the scheduler and close
    with a terminal entry (land, timeout, or crash); anything else is
    rejected as an incomplete run. Messages the scheduler logged as
    malformed (their payload was not strict JSON) are skipped.
    """
    meta = next((e for e in entries if e.get("kind") == "meta"), None)
    if meta is None:
        raise MetricsError("event log has no meta header")
    end = next((e for e in entries if e.get("kind") == "end"), None)
    if end is None:
        raise MetricsError("event log has no terminal entry (incomplete run)")
    dt = float(meta["dt"])
    frame_ticks = max(1, round(float(meta["frame_period"]) / dt))

    messages = [e for e in entries if e.get("kind") == "msg" and not e.get("malformed")]
    topic_counts: dict[str, int] = {}
    for message in messages:
        topic_counts[message["topic"]] = topic_counts.get(message["topic"], 0) + 1

    # Engagements in order of first assignment.
    engaged: list[tuple[str, int]] = []  # (target_id, tick of first assignment)
    seen: set[str] = set()
    for message in messages:
        if message["topic"] != topics.TELEMETRY_RESPONSE:
            continue
        payload = message.get("payload") or {}
        if payload.get("has_target") and payload.get("target_id") not in seen:
            seen.add(payload["target_id"])
            engaged.append((payload["target_id"], message["tick"]))

    locks = {
        (m.get("payload") or {}).get("target_id"): m["tick"]
        for m in messages
        if m["topic"] == topics.LOCK
    }
    signal_ticks = [m["tick"] for m in messages if m["topic"] == topics.SIGNAL_PROCESS_IMAGE]
    offset_ticks_all = [
        (m.get("payload") or {}).get("tick", m["tick"])
        for m in messages
        if m["topic"] == topics.IMAGE_MESSAGE
    ]

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
        terminated_by=str(end["terminated_by"]),
    )
