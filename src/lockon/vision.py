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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from . import bus as topics
from .bus import Envelope, MessageBus, Publisher
from .payloads import OffsetMessage
from .world import value


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
        if self.track_window <= 0.0:
            raise ValueError("track_window must be > 0")


class PipelineMode(Enum):
    DETECTING = "detecting"
    TRACKING = "tracking"


@value
class PipelineState:
    mode: PipelineMode = PipelineMode.DETECTING
    last_known: tuple[float, float] | None = None
    frames_in_view: int = 0
    active: bool = False

    def __post_init__(self) -> None:
        if self.mode is PipelineMode.TRACKING and self.last_known is None:
            raise ValueError("tracking mode requires a last known position")


def arm(state: PipelineState) -> PipelineState:
    """Start (or restart) the pipeline in detection mode."""
    return PipelineState(
        mode=PipelineMode.DETECTING, last_known=None, frames_in_view=0, active=True
    )


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
    """Advance the pipeline one camera frame.

    Inactive pipelines produce nothing. In detection mode a hit switches to
    tracking and emits the offset; in tracking mode a successful update
    refreshes the last known position and emits, while a loss falls back to
    detection with no message this frame.
    """
    if not state.active:
        return state, None
    if state.mode is PipelineMode.DETECTING:
        frames, hit = detector_attempt(state.frames_in_view, truth, params, rng)
        if hit is None:
            return PipelineState(state.mode, state.last_known, frames, state.active), None
        new_state = PipelineState(PipelineMode.TRACKING, hit, 0, state.active)
        return new_state, OffsetMessage(x=hit[0], y=hit[1], tick=tick)
    assert state.last_known is not None
    hit = tracker_update(state.last_known, truth, params, rng)
    if hit is None:
        return PipelineState(PipelineMode.DETECTING, None, 0, state.active), None
    new_state = PipelineState(state.mode, hit, state.frames_in_view, state.active)
    return new_state, OffsetMessage(x=hit[0], y=hit[1], tick=tick)


class VisionNode:
    """Bus-facing wrapper: arms on /signal/process_image, stops on /land."""

    CLIENT_ID = "vision"

    def __init__(self, bus: MessageBus, params: VisionParams, rng: random.Random) -> None:
        self.params = params
        self.rng = rng
        self.state = PipelineState()
        self._publisher = Publisher(bus, self.CLIENT_ID)
        bus.subscribe(self.CLIENT_ID, topics.SIGNAL_PROCESS_IMAGE)
        bus.subscribe(self.CLIENT_ID, topics.LAND)
        self._bus = bus
        self._terminated = False

    def handle_envelope(self, envelope: Envelope) -> None:
        if envelope.topic == topics.SIGNAL_PROCESS_IMAGE and not self._terminated:
            self.state = arm(self.state)
        elif envelope.topic == topics.LAND:
            self._terminated = True

    def step(self, tick: int, truth: tuple[float, float] | None, frame_due: bool) -> None:
        for envelope in self._bus.drain(self.CLIENT_ID):
            self.handle_envelope(envelope)
        if not frame_due or self._terminated:
            return
        self.state, message = process_frame(self.state, truth, self.params, self.rng, tick)
        if message is not None:
            self._publisher.send(topics.IMAGE_MESSAGE, message, tick)
