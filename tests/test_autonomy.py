"""Mission state machine transitions, guidance laws, and the lock timer."""

import dataclasses
import math

import pytest

from lockon.autonomy import (
    CameraStale,
    ControlGains,
    DistanceBelowThreshold,
    LockTimerElapsed,
    MissionContext,
    MissionState,
    NoMoreTargets,
    PublishAction,
    SetGuidance,
    StateMachineError,
    advance_lock_timer,
    handle_event,
    lock_guidance,
    search_guidance,
)
from lockon.autonomy import AutonomousNode
from lockon.bus import MessageBus, Publisher
from lockon.payloads import LockReport, OffsetMessage, TelemetryRequest, TelemetryResponse
from lockon.world import PursuerState, Vec3

GAINS = ControlGains()
NO_TARGET = TelemetryResponse(False, None, None, 0)


def ctx(**kw) -> MissionContext:
    base = dict(
        uav_id="uav-1",
        tick=100,
        time=5.0,
        pursuer=PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0),
    )
    base.update(kw)
    return MissionContext(**base)


class TestSearchTransitions:
    def test_telemetry_response_stores_target_and_steers(self):
        current = ctx()
        state, actions = handle_event(
            MissionState.SEARCH,
            current,
            TelemetryResponse(True, "T1", Vec3(100, 0, 10), 2),
            GAINS,
        )
        assert state is MissionState.SEARCH
        assert current.current_target == "T1"
        assert current.remaining_targets == 2
        assert len(actions) == 1 and isinstance(actions[0], SetGuidance)
        assert actions[0].command.speed == GAINS.v_cruise

    def test_distance_threshold_publishes_signal_once(self):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10))
        state, actions = handle_event(
            MissionState.SEARCH, current, DistanceBelowThreshold(), GAINS
        )
        assert state is MissionState.SEARCH
        assert current.signal_sent_for_current
        assert actions == [PublishAction("/signal/process_image", b"")]
        # Second crossing is a no-op.
        _, again = handle_event(MissionState.SEARCH, current, DistanceBelowThreshold(), GAINS)
        assert again == []

    def test_camera_offset_enters_lock_with_zero_timer(self):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      signal_sent_for_current=True)
        event = OffsetMessage(0.2, -0.1, tick=99)
        state, actions = handle_event(MissionState.SEARCH, current, event, GAINS)
        assert state is MissionState.LOCK
        assert current.lock_timer == 0.0
        assert current.lock_start_tick == 99
        assert current.last_camera_tick == 99
        assert isinstance(actions[0], SetGuidance)

    def test_stale_offset_before_signal_is_ignored(self):
        current = ctx(current_target="T2", target_position=Vec3(50, 0, 10))
        event = OffsetMessage(0.0, 0.0, tick=99)
        state, actions = handle_event(MissionState.SEARCH, current, event, GAINS)
        assert state is MissionState.SEARCH and actions == []

    def test_no_more_targets_lands(self):
        state, actions = handle_event(MissionState.SEARCH, ctx(), NoMoreTargets(), GAINS)
        assert state is MissionState.LANDING
        assert actions == [PublishAction("/land", b"")]

    def test_response_without_target_lands(self):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      lock_timer=1.0, lock_start_tick=90)
        state, actions = handle_event(MissionState.SEARCH, current, NO_TARGET, GAINS)
        assert state is MissionState.LANDING
        assert actions == [PublishAction("/land", b"")]
        assert current.current_target is None and current.target_position is None
        assert current.lock_timer == 0.0 and current.lock_start_tick is None

    def test_lock_timer_elapsed_is_illegal_in_search(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.SEARCH, ctx(), LockTimerElapsed(), GAINS)

    def test_camera_stale_is_illegal_in_search(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.SEARCH, ctx(), CameraStale(), GAINS)

    def test_new_assignment_resets_signal_flag(self):
        engaged = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      signal_sent_for_current=True)
        handle_event(
            MissionState.SEARCH,
            engaged,
            TelemetryResponse(True, "T2", Vec3(80, 0, 10), 1),
            GAINS,
        )
        assert engaged.current_target == "T2"
        assert not engaged.signal_sent_for_current


class TestLockTransitions:
    def lock_ctx(self, **kw):
        base = dict(
            current_target="T1",
            target_position=Vec3(10, 0, 10),
            remaining_targets=2,
            signal_sent_for_current=True,
            lock_start_tick=90,
            last_camera_tick=98,
            lock_timer=1.0,
        )
        base.update(kw)
        return ctx(**base)

    def test_camera_offset_updates_guidance_and_staleness(self):
        current = self.lock_ctx()
        event = OffsetMessage(0.5, 0.0, tick=100)
        state, actions = handle_event(MissionState.LOCK, current, event, GAINS)
        assert state is MissionState.LOCK
        assert current.last_camera_tick == 100
        command = actions[0].command
        assert abs(command.yaw_rate) == pytest.approx(0.4)
        assert command.speed == GAINS.v_lock

    def test_camera_stale_returns_to_search(self):
        current = self.lock_ctx()
        state, actions = handle_event(MissionState.LOCK, current, CameraStale(), GAINS)
        assert state is MissionState.SEARCH
        assert current.lock_timer == 0.0
        assert current.current_target == "T1"  # engagement continues
        assert current.signal_sent_for_current  # no duplicate signal later

    def test_lock_timer_elapsed_reports_and_requests_next(self):
        current = self.lock_ctx(tick=300)
        state, actions = handle_event(MissionState.LOCK, current, LockTimerElapsed(), GAINS)
        assert state is MissionState.SEARCH
        assert current.current_target is None
        assert current.remaining_targets == 1
        assert [a.topic for a in actions] == ["/lock", "/telemetry"]
        report, request = actions[0].payload, actions[1].payload
        assert type(report) is LockReport
        assert type(request) is TelemetryRequest and request.state == "SEARCH"
        assert report.target_id == "T1"
        assert report.lock_start_tick == 90 and report.lock_end_tick == 300

    def test_lock_timer_elapsed_on_last_target_requests_nothing(self):
        current = self.lock_ctx(remaining_targets=1)
        state, actions = handle_event(MissionState.LOCK, current, LockTimerElapsed(), GAINS)
        assert state is MissionState.SEARCH
        assert current.remaining_targets == 0
        assert [a.topic for a in actions] == ["/lock"]

    def test_telemetry_response_in_lock_is_benign(self):
        current = self.lock_ctx()
        state, actions = handle_event(
            MissionState.LOCK,
            current,
            TelemetryResponse(True, "T1", Vec3(11, 0, 10), 2),
            GAINS,
        )
        assert state is MissionState.LOCK
        assert current.target_position == Vec3(11, 0, 10)
        assert actions == []

    def test_response_without_target_is_ignored_in_lock(self):
        current = self.lock_ctx()
        before = dataclasses.replace(current)
        state, actions = handle_event(MissionState.LOCK, current, NO_TARGET, GAINS)
        assert state is MissionState.LOCK and actions == []
        assert current == before

    def test_no_more_targets_is_illegal_in_lock(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.LOCK, self.lock_ctx(), NoMoreTargets(), GAINS)


class TestTerminalStates:
    def test_landing_ignores_events(self):
        state, actions = handle_event(
            MissionState.LANDING, ctx(), OffsetMessage(0, 0, 1), GAINS
        )
        assert state is MissionState.LANDING and actions == []

    def test_landed_rejects_events(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.LANDED, ctx(), NoMoreTargets(), GAINS)

    def test_equal_contexts_stay_equal(self):
        first = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                    signal_sent_for_current=True)
        second = dataclasses.replace(first)
        event = OffsetMessage(0.2, -0.1, tick=99)
        assert handle_event(MissionState.SEARCH, first, event, GAINS) == handle_event(
            MissionState.SEARCH, second, event, GAINS
        )
        assert first == second and first is not second

    @pytest.mark.parametrize(
        "state, event",
        [
            (MissionState.SEARCH, LockTimerElapsed()),
            (MissionState.SEARCH, CameraStale()),
            (MissionState.LOCK, NoMoreTargets()),
            (MissionState.LANDED, NoMoreTargets()),
        ],
    )
    def test_illegal_event_leaves_context_unchanged(self, state, event):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      remaining_targets=2, lock_timer=1.0, lock_start_tick=90)
        before = dataclasses.replace(current)
        with pytest.raises(StateMachineError):
            handle_event(state, current, event, GAINS)
        assert current == before


class TestInboxRaces:
    """Envelopes arriving in one delivery batch must not wedge the machine."""

    def engaged_node(self):
        bus = MessageBus()
        node = AutonomousNode(
            bus, "uav-1", GAINS, dt=0.05, frame_period=0.1, telemetry_period=1.0
        )
        pursuer = PursuerState(Vec3(55, 0, 10), 0.0, 0.0, 0.0)
        node.step(0, 0.0, pursuer)  # BOOT -> SEARCH, first telemetry
        response = TelemetryResponse(True, "T1", Vec3(60, 0, 10), 1).encode()
        Publisher(bus, "proxy").send("/telemetry/response", response, 0)
        bus.deliver()
        node.step(1, 0.05, pursuer)  # stores target; 5 m < 10 m fires the signal
        assert node.ctx.signal_sent_for_current
        return bus, node, pursuer

    def test_offset_then_degraded_response_in_one_batch(self):
        bus, node, pursuer = self.engaged_node()
        Publisher(bus, "a-vision").send(
            "/image/message", OffsetMessage(0.0, 0.0, 1).encode(), 1
        )
        degraded = TelemetryResponse(False, None, None, 0).encode()
        Publisher(bus, "z-proxy").send("/telemetry/response", degraded, 1)
        bus.deliver()
        node.step(2, 0.1, pursuer)  # offset first: LOCK; stale empty reply ignored
        assert node.state is MissionState.LOCK

    def test_degraded_response_then_offset_in_one_batch(self):
        bus, node, pursuer = self.engaged_node()
        degraded = TelemetryResponse(False, None, None, 0).encode()
        Publisher(bus, "a-proxy").send("/telemetry/response", degraded, 1)
        Publisher(bus, "z-vision").send(
            "/image/message", OffsetMessage(0.0, 0.0, 1).encode(), 1
        )
        bus.deliver()
        node.step(2, 0.1, pursuer)  # lands; the late offset is dropped
        assert node.state is MissionState.LANDING


class TestSearchGuidance:
    def test_aligned_line_of_sight_flies_straight(self):
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        command = search_guidance(pursuer, Vec3(100, 0, 10), GAINS)
        assert command.yaw_rate == pytest.approx(0.0)
        assert command.pitch_rate == pytest.approx(0.0)
        assert command.speed == GAINS.v_cruise

    def test_bearing_ninety_left_proportional(self):
        # Heading error pi/2 with k_yaw 0.8 commands 0.8 * pi/2 toward the target.
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        command = search_guidance(pursuer, Vec3(0, 50, 10), GAINS)
        assert command.yaw_rate == pytest.approx(0.8 * math.pi / 2)

    def test_coincident_positions_degenerate(self):
        pursuer = PursuerState(Vec3(1, 2, 3), 0.5, 0.1, 0.0)
        command = search_guidance(pursuer, Vec3(1, 2, 3), GAINS)
        assert command.yaw_rate == 0.0 and command.pitch_rate == 0.0
        assert command.speed == GAINS.v_cruise

    def test_turn_direction_reduces_error(self):
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        right = search_guidance(pursuer, Vec3(0, -50, 10), GAINS)
        assert right.yaw_rate < 0.0  # clockwise toward a target to the south


class TestLockGuidance:
    def test_centered_target_zero_rates(self):
        command = lock_guidance(OffsetMessage(0.0, 0.0, 0), GAINS)
        assert command.yaw_rate == 0.0 and command.pitch_rate == 0.0
        assert command.speed == GAINS.v_lock

    def test_half_right_offset_magnitude(self):
        # 0.8 * 0.5 = 0.4 rad/s, steering toward the target on the right.
        command = lock_guidance(OffsetMessage(0.5, 0.0, 0), GAINS)
        assert abs(command.yaw_rate) == pytest.approx(0.4)
        assert command.yaw_rate < 0.0

    def test_below_center_pitches_down(self):
        command = lock_guidance(OffsetMessage(0.0, 0.5, 0), GAINS)
        assert command.pitch_rate == pytest.approx(-0.4)

    def test_out_of_range_offset_rejected(self):
        with pytest.raises(ValueError):
            OffsetMessage(1.2, 0.0, 0)


class TestLockTimer:
    def test_boundary_reaches_lock(self):
        current = ctx(lock_timer=9.95)
        assert advance_lock_timer(current, contained=True, dt=0.05, gains=GAINS)
        assert current.lock_timer == pytest.approx(10.0)

    def test_containment_break_resets(self):
        current = ctx(lock_timer=4.0, lock_start_tick=20)
        assert not advance_lock_timer(current, contained=False, dt=0.05, gains=GAINS)
        assert current.lock_timer == 0.0
        assert current.lock_start_tick == current.tick

    def test_accumulation_starts_from_zero(self):
        current = ctx()
        assert not advance_lock_timer(current, contained=True, dt=0.05, gains=GAINS)
        assert current.lock_timer == pytest.approx(0.05)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            advance_lock_timer(ctx(), contained=True, dt=0.0, gains=GAINS)

    @pytest.mark.parametrize("contained", [True, False])
    def test_changes_only_the_timer_fields(self, contained):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      lock_timer=4.0, lock_start_tick=20, last_camera_tick=98,
                      signal_sent_for_current=True)
        before = dataclasses.replace(current)
        advance_lock_timer(current, contained, 0.05, GAINS)
        timer_fields = {"lock_timer", "lock_start_tick"}
        for field in dataclasses.fields(MissionContext):
            if field.name not in timer_fields:
                assert getattr(current, field.name) == getattr(before, field.name)
        assert current.lock_timer != before.lock_timer

    def test_two_hundred_increments_reach_lock(self):
        current = ctx(lock_timer=0.0)
        achieved = False
        steps = 0
        while not achieved:
            achieved = advance_lock_timer(current, True, 0.05, GAINS)
            steps += 1
        assert steps == 200
