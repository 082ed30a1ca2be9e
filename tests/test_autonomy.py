"""Mission state machine transitions, guidance laws, and the lock timer."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from lockon.autonomy import (
    CameraOffsetEvent,
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
    TelemetryResponseEvent,
    handle_event,
    lock_guidance,
    lock_timer_update,
    search_guidance,
)
from lockon.autonomy import AutonomousNode
from lockon.bus import MessageBus, Publisher
from lockon.payloads import LockReport, OffsetMessage, TelemetryResponse
from lockon.world import PursuerState, Vec3

GAINS = ControlGains()


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
        state, after, actions = handle_event(
            MissionState.SEARCH,
            ctx(),
            TelemetryResponseEvent("T1", Vec3(100, 0, 10), remaining=2),
            GAINS,
        )
        assert state is MissionState.SEARCH
        assert after.current_target == "T1"
        assert after.remaining_targets == 2
        assert len(actions) == 1 and isinstance(actions[0], SetGuidance)
        assert actions[0].command.speed == GAINS.v_cruise

    def test_distance_threshold_publishes_signal_once(self):
        start = ctx(current_target="T1", target_position=Vec3(5, 0, 10))
        state, after, actions = handle_event(
            MissionState.SEARCH, start, DistanceBelowThreshold(), GAINS
        )
        assert state is MissionState.SEARCH
        assert after.signal_sent_for_current
        assert actions == [PublishAction("/signal/process_image", b"")]
        # Second crossing is a no-op.
        _, _, again = handle_event(MissionState.SEARCH, after, DistanceBelowThreshold(), GAINS)
        assert again == []

    def test_camera_offset_enters_lock_with_zero_timer(self):
        start = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                    signal_sent_for_current=True)
        event = CameraOffsetEvent(OffsetMessage(0.2, -0.1, tick=99))
        state, after, actions = handle_event(MissionState.SEARCH, start, event, GAINS)
        assert state is MissionState.LOCK
        assert after.lock_timer == 0.0
        assert after.lock_start_tick == 99
        assert after.last_camera_tick == 99
        assert isinstance(actions[0], SetGuidance)

    def test_stale_offset_before_signal_is_ignored(self):
        start = ctx(current_target="T2", target_position=Vec3(50, 0, 10))
        event = CameraOffsetEvent(OffsetMessage(0.0, 0.0, tick=99))
        state, after, actions = handle_event(MissionState.SEARCH, start, event, GAINS)
        assert state is MissionState.SEARCH and actions == []

    def test_no_more_targets_lands(self):
        state, after, actions = handle_event(
            MissionState.SEARCH, ctx(), NoMoreTargets(), GAINS
        )
        assert state is MissionState.LANDING
        assert actions == [PublishAction("/land", b"")]

    def test_lock_timer_elapsed_is_illegal_in_search(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.SEARCH, ctx(), LockTimerElapsed(), GAINS)

    def test_camera_stale_is_illegal_in_search(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.SEARCH, ctx(), CameraStale(), GAINS)

    def test_new_assignment_resets_signal_flag(self):
        engaged = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      signal_sent_for_current=True)
        _, after, _ = handle_event(
            MissionState.SEARCH,
            engaged,
            TelemetryResponseEvent("T2", Vec3(80, 0, 10), remaining=1),
            GAINS,
        )
        assert after.current_target == "T2"
        assert not after.signal_sent_for_current


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
        event = CameraOffsetEvent(OffsetMessage(0.5, 0.0, tick=100))
        state, after, actions = handle_event(MissionState.LOCK, self.lock_ctx(), event, GAINS)
        assert state is MissionState.LOCK
        assert after.last_camera_tick == 100
        command = actions[0].command
        assert abs(command.yaw_rate) == pytest.approx(0.4)
        assert command.speed == GAINS.v_lock

    def test_camera_stale_returns_to_search(self):
        state, after, actions = handle_event(
            MissionState.LOCK, self.lock_ctx(), CameraStale(), GAINS
        )
        assert state is MissionState.SEARCH
        assert after.lock_timer == 0.0
        assert after.current_target == "T1"  # engagement continues
        assert after.signal_sent_for_current  # no duplicate signal later

    def test_lock_timer_elapsed_reports_and_requests_next(self):
        state, after, actions = handle_event(
            MissionState.LOCK, self.lock_ctx(tick=300), LockTimerElapsed(), GAINS
        )
        assert state is MissionState.SEARCH
        assert after.current_target is None
        assert after.remaining_targets == 1
        assert [a.topic for a in actions] == ["/lock", "/telemetry"]
        report = LockReport.decode(actions[0].payload)
        assert report.target_id == "T1"
        assert report.lock_start_tick == 90 and report.lock_end_tick == 300

    def test_lock_timer_elapsed_on_last_target_requests_nothing(self):
        state, after, actions = handle_event(
            MissionState.LOCK, self.lock_ctx(remaining_targets=1), LockTimerElapsed(), GAINS
        )
        assert state is MissionState.SEARCH
        assert after.remaining_targets == 0
        assert [a.topic for a in actions] == ["/lock"]

    def test_telemetry_response_in_lock_is_benign(self):
        state, after, actions = handle_event(
            MissionState.LOCK,
            self.lock_ctx(),
            TelemetryResponseEvent("T1", Vec3(11, 0, 10), remaining=2),
            GAINS,
        )
        assert state is MissionState.LOCK
        assert after.target_position == Vec3(11, 0, 10)
        assert actions == []

    def test_no_more_targets_is_illegal_in_lock(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.LOCK, self.lock_ctx(), NoMoreTargets(), GAINS)


class TestTerminalStates:
    def test_landing_ignores_events(self):
        state, _, actions = handle_event(
            MissionState.LANDING, ctx(), CameraOffsetEvent(OffsetMessage(0, 0, 1)), GAINS
        )
        assert state is MissionState.LANDING and actions == []

    def test_landed_rejects_events(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.LANDED, ctx(), NoMoreTargets(), GAINS)

    def test_handle_event_is_pure(self):
        start = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                    signal_sent_for_current=True)
        before = dataclasses.replace(start)
        event = CameraOffsetEvent(OffsetMessage(0.2, -0.1, tick=99))
        first = handle_event(MissionState.SEARCH, start, event, GAINS)
        second = handle_event(MissionState.SEARCH, start, event, GAINS)
        assert first == second
        assert start == before  # the context is mutable; handle_event must not touch it


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
        start = ctx(lock_timer=9.95)
        after, achieved = lock_timer_update(start, contained=True, dt=0.05, gains=GAINS)
        assert achieved
        assert after.lock_timer == pytest.approx(10.0)

    def test_containment_break_resets(self):
        start = ctx(lock_timer=4.0, lock_start_tick=20)
        after, achieved = lock_timer_update(start, contained=False, dt=0.05, gains=GAINS)
        assert not achieved
        assert after.lock_timer == 0.0
        assert after.lock_start_tick == start.tick

    def test_accumulation_starts_from_zero(self):
        after, achieved = lock_timer_update(ctx(), contained=True, dt=0.05, gains=GAINS)
        assert not achieved
        assert after.lock_timer == pytest.approx(0.05)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            lock_timer_update(ctx(), contained=True, dt=0.0, gains=GAINS)

    @pytest.mark.parametrize("contained", [True, False])
    def test_leaves_its_input_unchanged(self, contained):
        start = ctx(lock_timer=4.0, lock_start_tick=20)
        before = dataclasses.replace(start)
        after, _ = lock_timer_update(start, contained, 0.05, GAINS)
        assert start == before and after is not start

    def test_two_hundred_increments_reach_lock(self):
        current = ctx(lock_timer=0.0)
        achieved = False
        steps = 0
        while not achieved:
            current, achieved = lock_timer_update(current, True, 0.05, GAINS)
            steps += 1
        assert steps == 200


_ANY_VALUE = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_CONTEXTS = st.builds(MissionContext, st.text(max_size=4), **{
    f.name: _ANY_VALUE for f in dataclasses.fields(MissionContext) if f.name != "uav_id"
})


@settings(max_examples=100, deadline=None)
@given(_CONTEXTS, st.data())
def test_context_copy_equals_dataclasses_replace(start, data):
    names = data.draw(st.sets(st.sampled_from([f.name for f in dataclasses.fields(MissionContext)])))
    changes = {name: data.draw(_ANY_VALUE) for name in sorted(names)}
    before = dataclasses.replace(start)
    copied = start.copy(**changes)
    expected = dataclasses.replace(start, **changes)
    assert copied is not start and start == before
    for field in dataclasses.fields(MissionContext):
        assert repr(getattr(copied, field.name)) == repr(getattr(expected, field.name))
