"""Detect-then-track pipeline behaviour and its handoff discipline."""

import math
import random
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import example, given, strategies as st

from lockon.bus import MessageBus
from lockon.payloads import OffsetMessage
from lockon.vision import (
    PipelineState,
    VisionNode,
    VisionParams,
    detector_attempt,
    process_frame,
    tracker_update,
)

CERTAIN = VisionParams(p_detect=1.0, detector_latency_frames=0, track_window=0.2, p_track_dropout=0.0)


def signal(bus, tick):
    """Publish and deliver /signal/process_image, as the autonomous node does."""
    bus.publish("autonomous", "/signal/process_image", b"", tick)
    bus.deliver()


class TestArm:
    def test_signal_arms_a_detecting_pipeline(self):
        bus = MessageBus()
        node = VisionNode(bus, CERTAIN, random.Random(0))
        assert not node.state.active
        signal(bus, 0)
        node.step(1, None)
        assert node.state == PipelineState(last_known=None, frames_in_view=0, active=True)

    def test_rearm_resets_tracking(self):
        # With a one-frame detector latency, a restarted detector stays
        # silent on its first frame, where the tracker would have emitted.
        params = VisionParams(p_detect=1.0, detector_latency_frames=1, track_window=0.2)
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, params, random.Random(0))
        signal(bus, 0)
        for tick in (1, 2, 3):
            node.step(tick, lambda: (0.1, 0.1))
            bus.deliver()
        assert [e.tick for e in bus.drain("listener")] == [2, 3]
        assert node.state.last_known == (0.1, 0.1)  # tracking
        signal(bus, 3)
        node.step(4, lambda: (0.1, 0.1))
        bus.deliver()
        assert bus.drain("listener") == []
        assert node.state == PipelineState(last_known=None, frames_in_view=1, active=True)


class TestDetectorAttempt:
    def test_no_truth_no_detection(self):
        frames, hit = detector_attempt(5, None, CERTAIN, random.Random(0))
        assert frames == 0 and hit is None

    def test_certain_detection_returns_truth(self):
        _, hit = detector_attempt(0, (0.2, -0.1), CERTAIN, random.Random(0))
        assert hit == (0.2, -0.1)

    def test_latency_delays_first_fire(self):
        params = VisionParams(p_detect=1.0, detector_latency_frames=2)
        rng = random.Random(0)
        frames = 0
        hits = []
        for _ in range(4):
            frames, hit = detector_attempt(frames, (0.0, 0.0), params, rng)
            hits.append(hit is not None)
        assert hits == [False, False, True, True]

    def test_out_of_frame_resets_latency_count(self):
        params = VisionParams(p_detect=1.0, detector_latency_frames=2)
        rng = random.Random(0)
        frames = 0
        for _ in range(2):
            frames, _ = detector_attempt(frames, (0.0, 0.0), params, rng)
        frames, _ = detector_attempt(frames, None, params, rng)
        frames, hit = detector_attempt(frames, (0.0, 0.0), params, rng)
        assert hit is None  # the consecutive-presence count started over

    def test_monte_carlo_fire_rate(self):
        # Empirical frequency oracle over a seeded stream.
        params = VisionParams(p_detect=0.5, detector_latency_frames=0)
        rng = random.Random(424242)
        fires = sum(
            1
            for _ in range(10_000)
            if detector_attempt(0, (0.1, 0.1), params, rng)[1] is not None
        )
        assert abs(fires / 10_000 - 0.5) <= 0.02


class TestTrackerUpdate:
    def test_zero_motion_reacquires(self):
        assert tracker_update((0.1, 0.1), (0.1, 0.1), CERTAIN, random.Random(0)) == (0.1, 0.1)

    def test_jump_beyond_window_is_lost(self):
        # 0.3 exceeds the 0.2 window.
        assert tracker_update((0.0, 0.0), (0.3, 0.0), CERTAIN, random.Random(0)) is None

    def test_a_jump_of_exactly_the_window_is_kept(self):
        # Re-acquisition is within the window, its edge included: 0.25 ** 0.5 is 0.5 exactly.
        params = VisionParams(p_detect=1.0, track_window=0.5)
        assert tracker_update((0.0, 0.0), (0.5, 0.0), params, random.Random(0)) == (0.5, 0.0)

    def test_truth_absent_is_lost(self):
        assert tracker_update((0.0, 0.0), None, CERTAIN, random.Random(0)) is None

    def test_dropout_misses_despite_proximity(self):
        params = VisionParams(p_detect=1.0, track_window=0.5, p_track_dropout=1.0)
        assert tracker_update((0.0, 0.0), (0.0, 0.0), params, random.Random(0)) is None


class TestProcessFrame:
    def test_inactive_pipeline_emits_nothing(self):
        state, message = process_frame(PipelineState(), (0.0, 0.0), CERTAIN, random.Random(0), 0)
        assert message is None and state == PipelineState()

    def test_detection_switches_to_tracking_and_emits(self):
        state = PipelineState(active=True)
        state, message = process_frame(state, (0.2, -0.1), CERTAIN, random.Random(0), 4)
        assert state.last_known is not None
        assert message == OffsetMessage(x=0.2, y=-0.1, tick=4)

    def test_track_loss_falls_back_to_detection_without_message(self):
        state = PipelineState(active=True)
        state, _ = process_frame(state, (0.0, 0.0), CERTAIN, random.Random(0), 0)
        state, message = process_frame(state, (0.9, 0.0), CERTAIN, random.Random(0), 2)
        assert message is None
        assert state.last_known is None

    def test_emitted_offsets_equal_truth(self):
        rng = random.Random(7)
        state = PipelineState(active=True)
        truth_stream = [(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)) for _ in range(50)]
        for tick, truth in enumerate(truth_stream):
            state, message = process_frame(state, truth, CERTAIN, rng, tick)
            if message is not None:
                assert (message.x, message.y) == truth

    def test_perfect_pipeline_emits_every_frame(self):
        state = PipelineState(active=True)
        messages = 0
        for tick in range(100):
            state, message = process_frame(state, (0.0, 0.0), CERTAIN, random.Random(tick), tick)
            messages += message is not None
        assert messages == 100

    def test_mode_discipline(self):
        # TRACKING is entered only on a detection, left only on a loss.
        params = VisionParams(p_detect=0.6, detector_latency_frames=0, track_window=0.2,
                              p_track_dropout=0.1)
        rng = random.Random(31)
        state = PipelineState(active=True)
        for tick in range(500):
            in_frame = rng.random() < 0.8
            truth = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) if in_frame else None
            was_detecting = state.last_known is None  # read first: the call updates state
            state, message = process_frame(state, truth, params, rng, tick)
            if was_detecting and state.last_known is not None:
                assert message is not None
            if not was_detecting and state.last_known is None:
                assert message is None


class ReferenceMode(Enum):
    DETECTING = "detecting"
    TRACKING = "tracking"


@dataclass(frozen=True)
class ReferenceState:
    mode: ReferenceMode = ReferenceMode.DETECTING
    last_known: tuple[float, float] | None = None
    frames_in_view: int = 0
    active: bool = False

    def __post_init__(self) -> None:
        if self.mode is ReferenceMode.TRACKING and self.last_known is None:
            raise ValueError("tracking mode requires a last known position")


def reference_process_frame(state, truth, params, rng, tick):
    """The earlier process_frame body, kept as the oracle: it builds a new
    frozen state every frame, with a mode beside the last known position."""
    if not state.active:
        return state, None
    if state.mode is ReferenceMode.DETECTING:
        frames, hit = detector_attempt(state.frames_in_view, truth, params, rng)
        if hit is None:
            return ReferenceState(state.mode, state.last_known, frames, state.active), None
        new_state = ReferenceState(ReferenceMode.TRACKING, hit, 0, state.active)
        return new_state, OffsetMessage(x=hit[0], y=hit[1], tick=tick)
    assert state.last_known is not None
    hit = tracker_update(state.last_known, truth, params, rng)
    if hit is None:
        return ReferenceState(ReferenceMode.DETECTING, None, 0, state.active), None
    new_state = ReferenceState(state.mode, hit, state.frames_in_view, state.active)
    return new_state, OffsetMessage(x=hit[0], y=hit[1], tick=tick)


offsets = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def truth_streams(draw):
    """Per-frame truths: out of frame (None), a small move from the last
    in-frame truth, or a jump anywhere in the frame."""
    stream, last = [], (0.0, 0.0)
    for _ in range(draw(st.integers(0, 60))):
        move = draw(st.sampled_from(["none", "near", "jump"]))
        if move == "none":
            stream.append(None)
            continue
        if move == "near":
            step = st.floats(min_value=-0.1, max_value=0.1)
            last = (max(-1.0, min(1.0, last[0] + draw(step))),
                    max(-1.0, min(1.0, last[1] + draw(step))))
        else:
            last = (draw(offsets), draw(offsets))
        stream.append(last)
    return stream


vision_params = st.builds(
    VisionParams,
    p_detect=st.floats(min_value=0.0, max_value=1.0),
    detector_latency_frames=st.integers(min_value=0, max_value=3),
    track_window=st.floats(min_value=0.01, max_value=2.0),
    p_track_dropout=st.floats(min_value=0.0, max_value=1.0),
)


class TestProcessFrameMatchesReference:
    @given(params=vision_params, stream=truth_streams(), seed=st.integers(0, 2**32 - 1))
    def test_in_place_state_follows_the_frozen_body(self, params, stream, seed):
        # An armed pipeline is the only reachable start: the node arms a
        # fresh state, so frames_in_view is 0 whenever it is tracking.
        state, reference = PipelineState(active=True), ReferenceState(active=True)
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for tick, truth in enumerate(stream):
            returned, message = process_frame(state, truth, params, rng, tick)
            reference, expected = reference_process_frame(
                reference, truth, params, reference_rng, tick
            )
            assert returned is state
            assert message == expected
            assert (state.last_known, state.frames_in_view) == (
                reference.last_known, reference.frames_in_view
            )
        assert rng.getstate() == reference_rng.getstate()


class TestVisionNode:
    def test_no_message_before_arming(self):
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, CERTAIN, random.Random(0))
        node.step(0, lambda: (0.0, 0.0))
        bus.deliver()
        assert bus.drain("listener") == []

    def test_armed_node_publishes_offsets(self):
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, CERTAIN, random.Random(0))
        bus.publish("autonomous", "/signal/process_image", b"", 0)
        bus.deliver()
        node.step(1, lambda: (0.1, 0.0))
        bus.deliver()
        received = bus.drain("listener")
        assert len(received) == 1
        # Published as a value, which decodes as its bytes do.
        assert received[0].payload == OffsetMessage(0.1, 0.0, 1)
        assert OffsetMessage.decode(received[0].payload.encode()) == OffsetMessage(0.1, 0.0, 1)

    def test_land_terminates_output(self):
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, CERTAIN, random.Random(0))
        bus.publish("autonomous", "/signal/process_image", b"", 0)
        bus.deliver()
        node.step(1, lambda: (0.0, 0.0))
        bus.publish("autonomous", "/land", b"", 1)
        bus.deliver()
        bus.drain("listener")
        node.step(2, lambda: (0.0, 0.0))
        bus.deliver()
        assert bus.drain("listener") == []

    def test_frame_is_rendered_only_while_armed(self):
        bus = MessageBus()
        node = VisionNode(bus, CERTAIN, random.Random(0))
        rendered = []

        def frame_of(tick):
            def frame():
                rendered.append(tick)
                return (0.0, 0.0)

            return frame

        def run_ticks(ticks):
            for tick in ticks:  # a frame is due on each even tick
                node.step(tick, frame_of(tick) if tick % 2 == 0 else None)
                bus.deliver()

        run_ticks(range(0, 4))
        assert rendered == []  # unarmed: no frame is rendered
        bus.publish("autonomous", "/signal/process_image", b"", 3)
        bus.deliver()
        run_ticks(range(4, 10))
        assert rendered == [4, 6, 8]  # once per due frame, from the arming tick on
        bus.publish("autonomous", "/land", b"", 9)
        bus.deliver()
        run_ticks(range(10, 14))
        assert rendered == [4, 6, 8]  # none after /land

    @given(st.floats())
    @example(math.nan)
    @example(math.inf)
    def test_track_window_must_be_positive_and_not_nan(self, window):
        # The earlier `<= 0.0` test's answer for every finite value; NaN and +-inf are refused.
        accepted = math.isfinite(window) and window > 0.0
        try:
            VisionParams(track_window=window)
        except ValueError as error:
            assert not accepted and "track_window" in str(error)
        else:
            assert accepted

    def test_params_validation(self):
        with pytest.raises(ValueError):
            VisionParams(p_detect=1.5)
        with pytest.raises(ValueError):
            VisionParams(track_window=0.0)
        with pytest.raises(ValueError):
            VisionParams(detector_latency_frames=-1)
