"""Simulated image-processing node: detect-then-track over ground truth.

The real system runs an expensive full-frame detector until the first hit,
then hands off to a cheap tracker windowed around the last known position,
falling back to detection on track loss. Here both stages are parametric
stochastic models fed the true projection of the target: the detector fires
with probability p_detect per frame once the target has been in frame for
detector_latency_frames consecutive frames; the tracker re-acquires within
track_window of the last known position unless a dropout draw misses.

A successful stage reports the exact ground-truth offset, so every emitted
message is unbiased; noise enters only as missed frames. All randomness
comes from the caller-supplied seeded stream.

The node arms a fresh ``PipelineState`` and each frame updates it in
place: the pipeline is detecting while ``last_known`` is None and tracking
otherwise.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from . import bus as topics
from .bus import Envelope, MessageBus
from .payloads import OffsetMessage
from .world import check_finite


@dataclass(frozen=True)
class VisionParams:
    p_detect: float = 0.9
    detector_latency_frames: int = 1
    track_window: float = 0.35
    p_track_dropout: float = 0.0

    def __post_init__(self) -> None:
        for name, p in (("p_detect", self.p_detect), ("p_track_dropout", self.p_track_dropout)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.detector_latency_frames < 0:
            raise ValueError("detector_latency_frames must be >= 0")
        check_finite(self, "track_window", positive=True)


@dataclass(slots=True)
class PipelineState:
    last_known: tuple[float, float] | None = None  # None while detecting
    frames_in_view: int = 0
    active: bool = False


def detector_attempt(
    frames_in_view: int,
    truth: tuple[float, float] | None,
    params: VisionParams,
    rng: random.Random,
) -> tuple[int, tuple[float, float] | None]:
    """One detector pass over a frame.

    Returns the updated consecutive-in-view frame count and the detection,
    if any. The count resets whenever the target is out of frame; once it
    has reached the latency threshold each in-view frame fires with
    probability p_detect and reports the true offset.
    """
    if truth is None:
        return 0, None
    hit = None
    if frames_in_view >= params.detector_latency_frames and rng.random() < params.p_detect:
        hit = truth
    return frames_in_view + 1, hit


def tracker_update(
    last_known: tuple[float, float],
    truth: tuple[float, float] | None,
    params: VisionParams,
    rng: random.Random,
) -> tuple[float, float] | None:
    """One tracker pass: re-acquire near the last known position or lose it."""
    if truth is None:
        return None
    du = truth[0] - last_known[0]
    dv = truth[1] - last_known[1]
    if (du * du + dv * dv) ** 0.5 > params.track_window:
        return None
    if params.p_track_dropout > 0.0 and rng.random() < params.p_track_dropout:
        return None
    return truth


def process_frame(
    state: PipelineState,
    truth: tuple[float, float] | None,
    params: VisionParams,
    rng: random.Random,
    tick: int,
) -> tuple[PipelineState, OffsetMessage | None]:
    """Advance the pipeline one camera frame, updating ``state`` in place.

    Inactive pipelines produce nothing. While detecting, a hit switches to
    tracking and emits the offset; while tracking, a successful update
    refreshes the last known position and emits, while a loss falls back to
    detection with no message this frame. Returns ``state`` and the message.
    """
    if not state.active:
        return state, None
    if state.last_known is None:
        state.frames_in_view, hit = detector_attempt(state.frames_in_view, truth, params, rng)
        if hit is not None:
            state.frames_in_view = 0
    else:
        hit = tracker_update(state.last_known, truth, params, rng)
    state.last_known = hit
    if hit is None:
        return state, None
    return state, OffsetMessage(hit[0], hit[1], tick)


class VisionNode:
    """Bus-facing wrapper: arms on /signal/process_image, stops on /land."""

    CLIENT_ID = "vision"

    def __init__(self, bus: MessageBus, params: VisionParams, rng: random.Random) -> None:
        self.params = params
        self.rng = rng
        self.state = PipelineState()
        bus.subscribe(self.CLIENT_ID, topics.SIGNAL_PROCESS_IMAGE)
        bus.subscribe(self.CLIENT_ID, topics.LAND)
        self._bus = bus
        self._inbox = bus.inbox(self.CLIENT_ID)
        self._terminated = False

    def handle_envelope(self, envelope: Envelope) -> None:
        if envelope.topic == topics.SIGNAL_PROCESS_IMAGE and not self._terminated:
            self.state = PipelineState(active=True)
        elif envelope.topic == topics.LAND:
            self._terminated = True

    def step(self, tick: int, frame: Callable[[], tuple[float, float] | None] | None) -> None:
        """Drain the inbox if it holds mail, then process this tick's camera frame, if any.

        ``frame`` is None on a tick with no frame, else a callable that renders
        the frame and returns its truth. It is called after the inbox is
        drained, so the arming tick sees its frame, and only while the pipeline
        is armed and /land has not been seen: an unarmed pipeline would
        discard the frame.
        """
        if self._inbox:
            for envelope in self._bus.drain(self.CLIENT_ID):
                self.handle_envelope(envelope)
        if frame is None or self._terminated or not self.state.active:
            return
        _, message = process_frame(self.state, frame(), self.params, self.rng, tick)
        if message is not None:
            self._bus.publish(self.CLIENT_ID, topics.IMAGE_MESSAGE, message, tick)
