"""Detect-then-track pipeline behaviour and its handoff discipline."""

import random

import pytest

from lockon.bus import MessageBus
from lockon.payloads import OffsetMessage
from lockon.vision import (
    PipelineMode,
    PipelineState,
    VisionNode,
    VisionParams,
    arm,
    detector_attempt,
    process_frame,
    tracker_update,
)

CERTAIN = VisionParams(p_detect=1.0, detector_latency_frames=0, track_window=0.2, p_track_dropout=0.0)


class TestArm:
    def test_fresh_state_becomes_active_detecting(self):
        state = arm(PipelineState())
        assert state.active and state.mode is PipelineMode.DETECTING
        assert state.last_known is None

    def test_rearm_resets_tracking(self):
        tracking = PipelineState(
            mode=PipelineMode.TRACKING, last_known=(0.1, 0.1), active=True
        )
        state = arm(tracking)
        assert state.mode is PipelineMode.DETECTING and state.last_known is None


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

    def test_truth_absent_is_lost(self):
        assert tracker_update((0.0, 0.0), None, CERTAIN, random.Random(0)) is None

    def test_dropout_misses_despite_proximity(self):
        params = VisionParams(p_detect=1.0, track_window=0.5, p_track_dropout=1.0)
        assert tracker_update((0.0, 0.0), (0.0, 0.0), params, random.Random(0)) is None


class TestProcessFrame:
    def test_inactive_pipeline_emits_nothing(self):
        state, message = process_frame(PipelineState(), (0.0, 0.0), CERTAIN, random.Random(0), 0)
        assert message is None and not state.active

    def test_detection_switches_to_tracking_and_emits(self):
        state = arm(PipelineState())
        state, message = process_frame(state, (0.2, -0.1), CERTAIN, random.Random(0), 4)
        assert state.mode is PipelineMode.TRACKING
        assert message == OffsetMessage(x=0.2, y=-0.1, tick=4)

    def test_track_loss_falls_back_to_detection_without_message(self):
        state = arm(PipelineState())
        state, _ = process_frame(state, (0.0, 0.0), CERTAIN, random.Random(0), 0)
        state, message = process_frame(state, (0.9, 0.0), CERTAIN, random.Random(0), 2)
        assert message is None
        assert state.mode is PipelineMode.DETECTING and state.last_known is None

    def test_emitted_offsets_equal_truth(self):
        rng = random.Random(7)
        state = arm(PipelineState())
        truth_stream = [(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)) for _ in range(50)]
        for tick, truth in enumerate(truth_stream):
            state, message = process_frame(state, truth, CERTAIN, rng, tick)
            if message is not None:
                assert (message.x, message.y) == truth

    def test_perfect_pipeline_emits_every_frame(self):
        state = arm(PipelineState())
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
        state = arm(PipelineState())
        for tick in range(500):
            in_frame = rng.random() < 0.8
            truth = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) if in_frame else None
            before = state.mode
            state, message = process_frame(state, truth, params, rng, tick)
            if before is PipelineMode.DETECTING and state.mode is PipelineMode.TRACKING:
                assert message is not None
            if before is PipelineMode.TRACKING and state.mode is PipelineMode.DETECTING:
                assert message is None


class TestVisionNode:
    def test_no_message_before_arming(self):
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, CERTAIN, random.Random(0))
        node.step(0, (0.0, 0.0), frame_due=True)
        bus.deliver()
        assert bus.drain("listener") == []

    def test_armed_node_publishes_offsets(self):
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, CERTAIN, random.Random(0))
        from lockon.bus import Publisher

        Publisher(bus, "autonomous").send("/signal/process_image", b"", 0)
        bus.deliver()
        node.step(1, (0.1, 0.0), frame_due=True)
        bus.deliver()
        received = bus.drain("listener")
        assert len(received) == 1
        # Published as a value; its bytes are made only when asked for.
        assert received[0].payload == OffsetMessage(0.1, 0.0, 1)
        assert OffsetMessage.decode(received[0].data()) == OffsetMessage(0.1, 0.0, 1)

    def test_land_terminates_output(self):
        bus = MessageBus()
        bus.subscribe("listener", "/image/message")
        node = VisionNode(bus, CERTAIN, random.Random(0))
        from lockon.bus import Publisher

        autonomous = Publisher(bus, "autonomous")
        autonomous.send("/signal/process_image", b"", 0)
        bus.deliver()
        node.step(1, (0.0, 0.0), frame_due=True)
        autonomous.send("/land", b"", 1)
        bus.deliver()
        bus.drain("listener")
        node.step(2, (0.0, 0.0), frame_due=True)
        bus.deliver()
        assert bus.drain("listener") == []

    def test_params_validation(self):
        with pytest.raises(ValueError):
            VisionParams(p_detect=1.5)
        with pytest.raises(ValueError):
            VisionParams(track_window=0.0)
        with pytest.raises(ValueError):
            VisionParams(detector_latency_frames=-1)
