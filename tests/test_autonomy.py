"""Mission state machine transitions, guidance laws, and the lock timer."""

import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from lockon import autonomy, bus as topics
from lockon.autonomy import (
    ControlGains,
    MissionContext,
    MissionState,
    Sensed,
    StateMachineError,
    advance_lock_timer,
    handle_event,
    lock_guidance,
    search_guidance,
)
from lockon.autonomy import AutonomousNode
from lockon.bus import MessageBus
from lockon.payloads import LockReport, Message, OffsetMessage, TelemetryRequest, TelemetryResponse
from lockon.world import PursuerState, SteeringCommand, Vec3, wrap_angle

GAINS = ControlGains()
NO_TARGET = TelemetryResponse(False, None, None, 0)


def hex_fields(command) -> tuple[str, str, str]:
    """A command's rates and speed as float.hex, so -0.0 and 0.0 differ."""
    return command.yaw_rate.hex(), command.pitch_rate.hex(), command.speed.hex()


def engaged_node():
    """A node in SEARCH that holds target T1 5 m ahead and has armed vision for it."""
    bus = MessageBus()
    node = AutonomousNode(bus, "uav-1", GAINS, dt=0.05, frame_period=0.1, telemetry_period=1.0)
    pursuer = PursuerState(Vec3(55, 0, 10), 0.0, 0.0, 0.0)
    node.step(0, 0.0, pursuer)  # BOOT -> SEARCH, first telemetry
    response = TelemetryResponse(True, "T1", Vec3(60, 0, 10), 1).encode()
    bus.publish("proxy", "/telemetry/response", response, 0)
    bus.deliver()
    node.step(1, 0.05, pursuer)  # stores target; 5 m < 10 m fires the signal
    assert node.ctx.signal_sent_for_current
    return bus, node, pursuer


def offset_read(bus, node, pursuer, offset):
    """Deliver ``offset`` and step the node on the tick after it."""
    bus.publish("vision", "/image/message", offset, offset.tick)
    bus.deliver()
    node.step(offset.tick + 1, (offset.tick + 1) * 0.05, pursuer)


def lock_fields(offset, gains=GAINS) -> tuple[str, str, str]:
    return hex_fields(lock_guidance(offset, gains, SteeringCommand()))


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
        )
        assert state is MissionState.SEARCH
        assert current.current_target == "T1"
        assert current.remaining_targets == 2
        assert actions == []
        # The node steers toward the stored target in the tick that reads it.
        bus = MessageBus()
        node = AutonomousNode(bus, "uav-1", GAINS, dt=0.05, frame_period=0.1, telemetry_period=1.0)
        pursuer = PursuerState(Vec3(0, 0, 10), 0.3, 0.0, 0.0)
        node.step(0, 0.0, pursuer)  # BOOT -> SEARCH
        target = Vec3(100, 40, 20)
        bus.publish("proxy", "/telemetry/response", TelemetryResponse(True, "T1", target, 2), 0)
        bus.deliver()
        node.step(1, 0.05, pursuer)
        expected = search_guidance(pursuer, target, GAINS, SteeringCommand())
        assert hex_fields(node.guidance) == hex_fields(expected)
        assert node.guidance.speed == GAINS.v_cruise and node.guidance.yaw_rate != 0.0

    def test_distance_threshold_publishes_signal_once(self):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10))
        state, actions = handle_event(
            MissionState.SEARCH, current, Sensed.DISTANCE_BELOW_THRESHOLD
        )
        assert state is MissionState.SEARCH
        assert current.signal_sent_for_current
        assert actions == [("/signal/process_image", b"")]
        # Second crossing is a no-op.
        _, again = handle_event(MissionState.SEARCH, current, Sensed.DISTANCE_BELOW_THRESHOLD)
        assert again == []

    def test_camera_offset_enters_lock_with_zero_timer(self):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      signal_sent_for_current=True)
        event = OffsetMessage(0.2, -0.1, tick=99)
        state, actions = handle_event(MissionState.SEARCH, current, event)
        assert state is MissionState.LOCK
        assert current.lock_timer == 0.0
        assert current.lock_start_tick == 99
        assert current.last_camera_tick == 99
        assert actions == []
        # The node steers its one command by the offset that enters LOCK.
        bus, node, pursuer = engaged_node()
        steering = node.guidance
        offset_read(bus, node, pursuer, OffsetMessage(0.2, -0.1, tick=1))
        assert node.state is MissionState.LOCK and node.guidance is steering
        assert hex_fields(node.guidance) == lock_fields(OffsetMessage(0.2, -0.1, tick=1))

    def test_stale_offset_before_signal_is_ignored(self):
        current = ctx(current_target="T2", target_position=Vec3(50, 0, 10))
        event = OffsetMessage(0.0, 0.0, tick=99)
        state, actions = handle_event(MissionState.SEARCH, current, event)
        assert state is MissionState.SEARCH and actions == []

    def test_no_more_targets_lands(self):
        state, actions = handle_event(MissionState.SEARCH, ctx(), Sensed.NO_MORE_TARGETS)
        assert state is MissionState.LANDING
        assert actions == [("/land", b"")]

    def test_response_without_target_lands(self):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      lock_timer=1.0, lock_start_tick=90)
        state, actions = handle_event(MissionState.SEARCH, current, NO_TARGET)
        assert state is MissionState.LANDING
        assert actions == [("/land", b"")]
        assert current.current_target is None and current.target_position is None
        assert current.lock_timer == 0.0 and current.lock_start_tick is None

    def test_lock_timer_elapsed_is_illegal_in_search(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.SEARCH, ctx(), Sensed.LOCK_TIMER_ELAPSED)

    def test_camera_stale_is_illegal_in_search(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.SEARCH, ctx(), Sensed.CAMERA_STALE)

    def test_new_assignment_resets_signal_flag(self):
        engaged = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      signal_sent_for_current=True)
        handle_event(
            MissionState.SEARCH,
            engaged,
            TelemetryResponse(True, "T2", Vec3(80, 0, 10), 1),
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
        state, actions = handle_event(MissionState.LOCK, current, event)
        assert state is MissionState.LOCK
        assert current.last_camera_tick == 100
        assert actions == []
        # In LOCK each offset rewrites the node's one command.
        bus, node, pursuer = engaged_node()
        offset_read(bus, node, pursuer, OffsetMessage(0.2, -0.1, tick=1))
        steering = node.guidance
        offset_read(bus, node, pursuer, event)
        assert node.state is MissionState.LOCK and node.guidance is steering
        assert hex_fields(node.guidance) == lock_fields(event)
        assert node.guidance.yaw_rate == pytest.approx(-0.4)
        assert node.guidance.speed == GAINS.v_lock

    def test_camera_stale_returns_to_search(self):
        current = self.lock_ctx()
        state, actions = handle_event(MissionState.LOCK, current, Sensed.CAMERA_STALE)
        assert state is MissionState.SEARCH
        assert current.lock_timer == 0.0
        assert current.current_target == "T1"  # engagement continues
        assert current.signal_sent_for_current  # no duplicate signal later

    def test_lock_timer_elapsed_reports_and_requests_next(self):
        current = self.lock_ctx(tick=300)
        state, actions = handle_event(MissionState.LOCK, current, Sensed.LOCK_TIMER_ELAPSED)
        assert state is MissionState.SEARCH
        assert current.current_target is None
        assert current.remaining_targets == 1
        assert [topic for topic, _ in actions] == ["/lock", "/telemetry"]
        (_, report), (_, request) = actions
        assert type(report) is LockReport
        assert type(request) is TelemetryRequest and request.state == "SEARCH"
        assert report.target_id == "T1"
        assert report.lock_start_tick == 90 and report.lock_end_tick == 300

    def test_lock_timer_elapsed_on_last_target_requests_nothing(self):
        current = self.lock_ctx(remaining_targets=1)
        state, actions = handle_event(MissionState.LOCK, current, Sensed.LOCK_TIMER_ELAPSED)
        assert state is MissionState.SEARCH
        assert current.remaining_targets == 0
        assert [topic for topic, _ in actions] == ["/lock"]

    def test_telemetry_response_in_lock_is_benign(self):
        current = self.lock_ctx()
        state, actions = handle_event(
            MissionState.LOCK,
            current,
            TelemetryResponse(True, "T1", Vec3(11, 0, 10), 2),
        )
        assert state is MissionState.LOCK
        assert current.target_position == Vec3(11, 0, 10)
        assert actions == []

    def test_response_without_target_is_ignored_in_lock(self):
        current = self.lock_ctx()
        before = dataclasses.replace(current)
        state, actions = handle_event(MissionState.LOCK, current, NO_TARGET)
        assert state is MissionState.LOCK and actions == []
        assert current == before

    def test_no_more_targets_is_illegal_in_lock(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.LOCK, self.lock_ctx(), Sensed.NO_MORE_TARGETS)


class TestTerminalStates:
    def test_landing_ignores_events(self):
        state, actions = handle_event(
            MissionState.LANDING, ctx(), OffsetMessage(0, 0, 1)
        )
        assert state is MissionState.LANDING and actions == []

    def test_landed_rejects_events(self):
        with pytest.raises(StateMachineError):
            handle_event(MissionState.LANDED, ctx(), Sensed.NO_MORE_TARGETS)

    def test_equal_contexts_stay_equal(self):
        first = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                    signal_sent_for_current=True)
        second = dataclasses.replace(first)
        event = OffsetMessage(0.2, -0.1, tick=99)
        assert handle_event(MissionState.SEARCH, first, event) == handle_event(
            MissionState.SEARCH, second, event
        )
        assert first == second and first is not second

    @pytest.mark.parametrize(
        "state, event",
        [
            (MissionState.SEARCH, Sensed.LOCK_TIMER_ELAPSED),
            (MissionState.SEARCH, Sensed.CAMERA_STALE),
            (MissionState.LOCK, Sensed.NO_MORE_TARGETS),
            (MissionState.LANDED, Sensed.NO_MORE_TARGETS),
        ],
    )
    def test_illegal_event_leaves_context_unchanged(self, state, event):
        current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                      remaining_targets=2, lock_timer=1.0, lock_start_tick=90)
        before = dataclasses.replace(current)
        with pytest.raises(StateMachineError):
            handle_event(state, current, event)
        assert current == before


class TestEventsAndActions:
    """The sensed events are enum members and the actions plain values."""

    @pytest.mark.parametrize(
        "event, legal_in",
        [
            (Sensed.DISTANCE_BELOW_THRESHOLD, MissionState.SEARCH),
            (Sensed.NO_MORE_TARGETS, MissionState.SEARCH),
            (Sensed.CAMERA_STALE, MissionState.LOCK),
            (Sensed.LOCK_TIMER_ELAPSED, MissionState.LOCK),
        ],
        ids=lambda value: value.name,
    )
    def test_sensed_event_is_legal_in_one_flying_state(self, event, legal_in):
        legal = set()
        for state in (MissionState.SEARCH, MissionState.LOCK):
            current = ctx(current_target="T1", target_position=Vec3(5, 0, 10),
                          remaining_targets=2, lock_start_tick=90)
            try:
                handle_event(state, current, event)
            except StateMachineError:
                continue
            legal.add(state)
        assert legal == {legal_in}

    def test_actions_are_guidances_or_topic_payload_pairs(self):
        # Guidance is steered in place, so every action is a (topic, payload) pair.
        current = ctx()
        state = MissionState.SEARCH
        actions = []
        for event in (
            TelemetryResponse(True, "T1", Vec3(5, 0, 10), 2),
            Sensed.DISTANCE_BELOW_THRESHOLD,
            OffsetMessage(0.2, -0.1, tick=100),
            OffsetMessage(0.1, 0.0, tick=101),
            Sensed.LOCK_TIMER_ELAPSED,
            NO_TARGET,
        ):
            state, emitted = handle_event(state, current, event)
            actions += emitted
        assert state is MissionState.LANDING
        known = {getattr(topics, name) for name in dir(topics) if name.isupper()}
        for pair in actions:
            assert type(pair) is tuple and len(pair) == 2
            topic, payload = pair
            assert topic in known
            assert type(payload) is bytes or isinstance(payload, Message)
        assert [topic for topic, _ in actions] == [
            "/signal/process_image", "/lock", "/telemetry", "/land"
        ]


class TestInboxRaces:
    """Envelopes arriving in one delivery batch must not wedge the machine."""

    def test_offset_then_degraded_response_in_one_batch(self):
        bus, node, pursuer = engaged_node()
        bus.publish("a-vision", "/image/message", OffsetMessage(0.0, 0.0, 1).encode(), 1)
        degraded = TelemetryResponse(False, None, None, 0).encode()
        bus.publish("z-proxy", "/telemetry/response", degraded, 1)
        bus.deliver()
        node.step(2, 0.1, pursuer)  # offset first: LOCK; stale empty reply ignored
        assert node.state is MissionState.LOCK

    def test_degraded_response_then_offset_in_one_batch(self):
        bus, node, pursuer = engaged_node()
        degraded = TelemetryResponse(False, None, None, 0).encode()
        bus.publish("a-proxy", "/telemetry/response", degraded, 1)
        bus.publish("z-vision", "/image/message", OffsetMessage(0.0, 0.0, 1).encode(), 1)
        bus.deliver()
        node.step(2, 0.1, pursuer)  # lands; the late offset is dropped
        assert node.state is MissionState.LANDING



class TestPeriodicTelemetry:
    """A request is due once telemetry_period - 1e-9 has passed since the last one."""

    @staticmethod
    def telemetry_sent(bus) -> int:
        sent = sum(envelope.topic == "/telemetry" for envelope, _ in bus.pending())
        bus.deliver()
        return sent

    def test_due_at_exactly_the_period_less_its_margin(self):
        bus = MessageBus()
        node = AutonomousNode(bus, "uav-1", GAINS, dt=0.05, frame_period=0.1, telemetry_period=1.0)
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        node.step(0, 0.0, pursuer)  # BOOT -> SEARCH, first telemetry at time 0.0
        assert self.telemetry_sent(bus) == 1
        due = 1.0 - 1e-9
        node.step(1, math.nextafter(due, 0.0), pursuer)
        assert self.telemetry_sent(bus) == 0
        node.step(2, due, pursuer)
        assert self.telemetry_sent(bus) == 1

class TestEnumConstants:
    """The FSM reads its states and events as module constants, not through the Enum class."""

    @pytest.mark.parametrize(
        "function",
        [
            AutonomousNode.step,
            AutonomousNode._process_inbox,
            AutonomousNode._dispatch,
            AutonomousNode._execute,
            handle_event,
            autonomy._telemetry_request,
        ],
        ids=lambda function: function.__name__,
    )
    def test_no_hot_function_reads_an_enum_class(self, function):
        names = function.__code__.co_names
        assert "MissionState" not in names and "Sensed" not in names
        assert "value" not in names  # a member's .value is a Python-level property

    @pytest.mark.parametrize("member", [*MissionState, *Sensed], ids=lambda member: member.name)
    def test_each_constant_is_its_member(self, member):
        assert getattr(autonomy, f"_{member.name}") is member


class TestSearchGuidance:
    def test_aligned_line_of_sight_flies_straight(self):
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        command = search_guidance(pursuer, Vec3(100, 0, 10), GAINS, SteeringCommand())
        assert command.yaw_rate == pytest.approx(0.0)
        assert command.pitch_rate == pytest.approx(0.0)
        assert command.speed == GAINS.v_cruise

    def test_bearing_ninety_left_proportional(self):
        # Heading error pi/2 with k_yaw 0.8 commands 0.8 * pi/2 toward the target.
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        command = search_guidance(pursuer, Vec3(0, 50, 10), GAINS, SteeringCommand())
        assert command.yaw_rate == pytest.approx(0.8 * math.pi / 2)

    def test_coincident_positions_degenerate(self):
        pursuer = PursuerState(Vec3(1, 2, 3), 0.5, 0.1, 0.0)
        command = search_guidance(pursuer, Vec3(1, 2, 3), GAINS, SteeringCommand())
        assert command.yaw_rate == 0.0 and command.pitch_rate == 0.0
        assert command.speed == GAINS.v_cruise

    def test_only_a_target_within_a_micrometre_counts_as_coincident(self):
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        command = search_guidance(pursuer, Vec3(0, 1e-4, 10), GAINS, SteeringCommand())
        assert command.yaw_rate == pytest.approx(0.8 * math.pi / 2)

    def test_turn_direction_reduces_error(self):
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        right = search_guidance(pursuer, Vec3(0, -50, 10), GAINS, SteeringCommand())
        assert right.yaw_rate < 0.0  # clockwise toward a target to the south


def reference_search_rates(pursuer, target, gains) -> tuple[float, float] | None:
    """The SEARCH law as a new GuidanceCommand computed it: (yaw rate, pitch
    rate), or None where it raised ValueError: an infinite yaw fails in
    ``wrap_angle``'s fmod, any other non-finite rate in the command."""
    rx, ry, rz = target.x - pursuer.x, target.y - pursuer.y, target.z - pursuer.z
    if math.sqrt(rx * rx + ry * ry + rz * rz) < 1e-6:
        return 0.0, 0.0
    try:
        yaw_err = wrap_angle(math.atan2(ry, rx) - pursuer.yaw)
    except ValueError:
        return None
    yaw_rate = gains.k_yaw * yaw_err
    pitch_rate = gains.k_pitch * (math.atan2(rz, math.hypot(rx, ry)) - pursuer.pitch)
    if not (math.isfinite(yaw_rate) and math.isfinite(pitch_rate)):
        return None
    return yaw_rate, pitch_rate


POSE = ("x", "y", "z", "yaw", "pitch")
finite = st.floats(allow_nan=False, allow_infinity=False)


def pose_and_target(coordinate):
    return st.tuples(st.tuples(*[coordinate] * len(POSE)), st.tuples(*[coordinate] * 3))


def placed(pose, target):
    pursuer = PursuerState(Vec3(0.0, 0.0, 0.0), 0.0, 0.0, 0.0)
    for name, coordinate in zip(POSE, pose):
        setattr(pursuer, name, coordinate)  # unwrapped and unclamped, to reach every float
    return pursuer, Vec3(*target)


class TestSearchGuidanceInPlace:
    """search_guidance writes the rates a new GuidanceCommand held, bit for bit."""

    @given(pose_and_target(finite))
    def test_finite_pose_and_target_give_the_reference_rates(self, coordinates):
        pursuer, target = placed(*coordinates)
        command = SteeringCommand()
        assert search_guidance(pursuer, target, GAINS, command) is command
        expected = reference_search_rates(pursuer, target, GAINS)
        assert expected is not None
        assert hex_fields(command) == (expected[0].hex(), expected[1].hex(), GAINS.v_cruise.hex())

    @given(
        pose_and_target(finite),
        st.integers(0, len(POSE) + 2),
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.tuples(finite, finite, finite),
    )
    # A NaN target raises; an infinite target x cancels out, since atan2(y, inf)
    # = 0; an infinite yaw fails in wrap_angle; coincident positions read no yaw.
    @example(((0.0, 0.0, 10.0, 0.0, 0.0), (5.0, 5.0, 10.0)), 5, math.nan, (1.0, 2.0, 3.0))
    @example(((0.0, 0.0, 10.0, 0.0, 0.0), (5.0, 5.0, 10.0)), 5, math.inf, (1.0, 2.0, 3.0))
    @example(((0.0, 0.0, 10.0, 0.0, 0.0), (5.0, 5.0, 10.0)), 3, math.inf, (1.0, 2.0, 3.0))
    @example(((1.0, 2.0, 3.0, 0.0, 0.0), (1.0, 2.0, 3.0)), 3, math.nan, (1.0, 2.0, 3.0))
    def test_a_non_finite_coordinate_raises_where_the_reference_did(
        self, coordinates, index, bad, before
    ):
        flat = [*coordinates[0], *coordinates[1]]
        flat[index] = bad
        pursuer, target = placed(flat[: len(POSE)], flat[len(POSE):])
        command = SteeringCommand()
        command.yaw_rate, command.pitch_rate, command.speed = before
        expected = reference_search_rates(pursuer, target, GAINS)
        if expected is None:
            message = "math domain error" if math.isinf(pursuer.yaw) else "rates must be finite"
            with pytest.raises(ValueError, match=message):
                search_guidance(pursuer, target, GAINS, command)
            assert hex_fields(command) == tuple(x.hex() for x in before)
        else:
            search_guidance(pursuer, target, GAINS, command)
            assert hex_fields(command) == (
                expected[0].hex(), expected[1].hex(), GAINS.v_cruise.hex()
            )


class TestLockGuidance:
    def test_centered_target_zero_rates(self):
        command = lock_guidance(OffsetMessage(0.0, 0.0, 0), GAINS, SteeringCommand())
        assert command.yaw_rate == 0.0 and command.pitch_rate == 0.0
        assert command.speed == GAINS.v_lock

    def test_half_right_offset_magnitude(self):
        # 0.8 * 0.5 = 0.4 rad/s, steering toward the target on the right.
        command = lock_guidance(OffsetMessage(0.5, 0.0, 0), GAINS, SteeringCommand())
        assert abs(command.yaw_rate) == pytest.approx(0.4)
        assert command.yaw_rate < 0.0

    def test_below_center_pitches_down(self):
        command = lock_guidance(OffsetMessage(0.0, 0.5, 0), GAINS, SteeringCommand())
        assert command.pitch_rate == pytest.approx(-0.4)

    def test_out_of_range_offset_rejected(self):
        with pytest.raises(ValueError):
            OffsetMessage(1.2, 0.0, 0)

    def test_nan_offset_rejected(self):
        # OffsetMessage refuses NaN, and so does the law for a stand-in that holds it.
        with pytest.raises(ValueError, match="must lie in"):
            OffsetMessage(math.nan, 0.0, 0)
        with pytest.raises(ValueError, match="rates must be finite"):
            lock_guidance(SimpleNamespace(x=math.nan, y=0.0), GAINS, SteeringCommand())


def reference_lock_command(offset, gains) -> tuple[float, float, float] | None:
    """The LOCK law as a new GuidanceCommand held it: (yaw rate, pitch rate,
    speed), or None where its constructor raised ValueError."""
    yaw_rate, pitch_rate, speed = -gains.k_yaw * offset.x, -gains.k_pitch * offset.y, gains.v_lock
    if speed < 0.0 or not (math.isfinite(yaw_rate) and math.isfinite(pitch_rate)):
        return None
    return yaw_rate, pitch_rate, speed


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
lock_gains = st.builds(ControlGains, k_yaw=positive, k_pitch=positive, v_lock=positive)


class TestLockGuidanceInPlace:
    """lock_guidance writes the fields a new GuidanceCommand held, bit for bit."""

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), lock_gains)
    def test_an_offset_in_frame_gives_the_reference_command(self, x, y, gains):
        command = SteeringCommand()
        assert lock_guidance(OffsetMessage(x, y, 0), gains, command) is command
        expected = reference_lock_command(OffsetMessage(x, y, 0), gains)
        assert expected is not None
        assert hex_fields(command) == tuple(value.hex() for value in expected)

    # The offset is a stand-in, so any float reaches the law: an infinite
    # offset, or one whose product with the gain overflows.
    @given(st.floats(), st.floats(), lock_gains, st.tuples(finite, finite, finite))
    @example(math.nan, 0.0, GAINS, (1.0, 2.0, 3.0))
    @example(0.0, -math.inf, GAINS, (1.0, 2.0, 3.0))
    @example(1e308, 0.0, ControlGains(k_yaw=10.0), (1.0, 2.0, 3.0))
    def test_a_non_finite_rate_raises_and_leaves_the_command(self, x, y, gains, before):
        offset = SimpleNamespace(x=x, y=y)
        command = SteeringCommand(*before)
        expected = reference_lock_command(offset, gains)
        if expected is None:
            with pytest.raises(ValueError, match="rates must be finite"):
                lock_guidance(offset, gains, command)
            assert hex_fields(command) == tuple(value.hex() for value in before)
        else:
            lock_guidance(offset, gains, command)
            assert hex_fields(command) == tuple(value.hex() for value in expected)


class TestControlGains:
    NAMES = [field.name for field in dataclasses.fields(ControlGains)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=str)
    @pytest.mark.parametrize("name", NAMES)
    def test_each_gain_must_be_finite_and_positive(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            ControlGains(**{name: bad})

    def test_the_largest_finite_gain_is_accepted(self):
        gains = ControlGains(**{name: 1.7976931348623157e308 for name in self.NAMES})
        assert all(getattr(gains, name) == 1.7976931348623157e308 for name in self.NAMES)


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
