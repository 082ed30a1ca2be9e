"""Kinematics: trajectories, distances, camera projection, Euler stepping."""

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from lockon.payloads import LockReport, TelemetryRequest
from lockon.world import (
    CameraParams,
    PursuerState,
    SteeringCommand,
    TrajectoryKind,
    TrajectorySpec,
    Vec3,
    camera_pose,
    distance,
    eval_trajectory,
    project_to_camera,
    step,
    wrap_angle,
)

from conftest import reference_project, reference_triad

CAM = CameraParams(hfov=math.pi / 2, vfov=math.pi / 3)

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)


def project(pursuer, target, cam=CAM):
    """Project one point through the frame's pose, as the scheduler does."""
    return project_to_camera(camera_pose(pursuer, cam), target.x, target.y, target.z)


def ahead_of(pursuer, k):
    """The point k along the unit vector of the pursuer's (yaw, pitch) attitude
    from its position, each component as ``x + fx * k``."""
    fx, fy, fz = reference_triad(pursuer.yaw, pursuer.pitch)[:3]
    return Vec3(pursuer.x + fx * k, pursuer.y + fy * k, pursuer.z + fz * k)


class TestEvalTrajectory:
    def test_stationary_is_constant(self):
        spec = TrajectorySpec(TrajectoryKind.STATIONARY, p0=Vec3(50, 0, 10))
        assert eval_trajectory(spec, 7.0) == Vec3(50, 0, 10)

    def test_constant_velocity(self):
        spec = TrajectorySpec(
            TrajectoryKind.CONSTANT_VELOCITY, p0=Vec3(0, 0, 10), v0=Vec3(2, 0, 0)
        )
        assert eval_trajectory(spec, 3.0) == Vec3(6, 0, 10)

    def test_constant_acceleration(self):
        # Hand evaluation of a*t^2/2: 0.5 * 2 * 9 = 9.
        spec = TrajectorySpec(
            TrajectoryKind.CONSTANT_ACCELERATION,
            p0=Vec3(0, 0, 10),
            v0=Vec3(0, 0, 0),
            a=Vec3(2, 0, 0),
        )
        assert eval_trajectory(spec, 3.0) == Vec3(9, 0, 10)

    def test_negative_time_rejected(self):
        spec = TrajectorySpec(TrajectoryKind.STATIONARY, p0=Vec3(0, 0, 0))
        with pytest.raises(ValueError):
            eval_trajectory(spec, -1.0)

    def test_invalid_spec_combinations_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySpec(TrajectoryKind.STATIONARY, p0=Vec3(0, 0, 0), v0=Vec3(1, 0, 0))
        with pytest.raises(ValueError):
            TrajectorySpec(
                TrajectoryKind.CONSTANT_VELOCITY,
                p0=Vec3(0, 0, 0),
                v0=Vec3(1, 0, 0),
                a=Vec3(1, 0, 0),
            )

    @given(vectors, vectors, st.floats(min_value=0, max_value=100))
    def test_zero_acceleration_reduces_to_linear(self, p0, v0, t):
        spec = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, p0=p0, v0=v0)
        expected = Vec3(p0.x + v0.x * t, p0.y + v0.y * t, p0.z + v0.z * t)
        assert eval_trajectory(spec, t) == expected


class TestVec3FromAny:
    def test_mapping_and_sequence_forms(self):
        assert Vec3.from_any({"x": 1, "y": 2.5, "z": -3}) == Vec3(1.0, 2.5, -3.0)
        assert Vec3.from_any([1, 2, 3]) == Vec3.from_any((1.0, 2.0, 3.0)) == Vec3(1, 2, 3)

    @pytest.mark.parametrize(
        "value",
        [
            [float("nan"), 0, 0],
            {"x": 0, "y": float("inf"), "z": 0},
            [0, 0, 10**400],
            [True, 0, 0],
            ["1", 0, 0],
            {"x": 1, "y": 2},
            [1, 2],
            "123",
            None,
        ],
    )
    def test_anything_else_is_a_value_error(self, value):
        with pytest.raises(ValueError):
            Vec3.from_any(value)


def reference_distance(a, b):
    """The earlier distance body, kept as the oracle: it tests its inputs first."""
    if not (Vec3.is_finite(a) and b.is_finite()):
        raise ValueError("distance requires finite inputs")
    dx, dy, dz = a.x - b.x, a.y - b.y, a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


class TestDistance:
    def test_identity(self):
        p = Vec3(1.5, -2.0, 7.0)
        assert distance(p, p) == 0.0

    def test_pythagorean_quadruple(self):
        assert distance(Vec3(0, 0, 0), Vec3(3, 4, 12)) == 13.0

    def test_componentwise_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            a = Vec3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = Vec3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
            brute = math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)
            assert distance(a, b) == pytest.approx(brute, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            distance(Vec3(float("nan"), 0, 0), Vec3(0, 0, 0))

    @given(st.tuples(*[st.floats()] * 6), st.booleans())
    @example((math.nan, 0.0, 0.0, 0.0, 0.0, 0.0), False)
    @example((math.inf, 0.0, 0.0, math.inf, 0.0, 0.0), True)
    @example((0.0, 0.0, -math.inf, 0.0, 0.0, 0.0), False)
    @example((1e308, 0.0, 0.0, -1e308, 0.0, 0.0), True)  # finite inputs, infinite result
    @example((1e200, 1e200, 0.0, 0.0, 0.0, 0.0), False)
    def test_raises_where_the_input_check_did_and_keeps_its_bits(self, coordinates, pursuer):
        a, b = Vec3(*coordinates[:3]), Vec3(*coordinates[3:])
        if pursuer:  # a pursuer stands for its position
            a = PursuerState(Vec3(0.0, 0.0, 0.0), 0.0, 0.0, 0.0)
            a.x, a.y, a.z = coordinates[:3]
        try:
            expected = reference_distance(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="finite inputs"):
                distance(a, b)
        else:
            assert distance(a, b).hex() == expected.hex()

    @given(vectors, vectors, vectors)
    def test_symmetry_and_triangle_inequality(self, a, b, c):
        assert distance(a, b) == pytest.approx(distance(b, a))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-7


class TestProjection:
    def test_pose_holds_origin_triad_and_tangents(self):
        pursuer = PursuerState(position=Vec3(1.0, 2.0, 3.0), yaw=0.4, pitch=-0.2, speed=0.0)
        pose = camera_pose(pursuer, CAM)
        triad = reference_triad(pursuer.yaw, pursuer.pitch)  # the yaw as wrapped
        expected = (1.0, 2.0, 3.0, *triad, CAM.tan_half_hfov, CAM.tan_half_vfov)
        assert [c.hex() for c in pose] == [c.hex() for c in expected]
        # Forward, right and down are orthonormal, and down points below the horizon.
        axes = pose[3:6], pose[6:9], pose[9:12]
        for i, a in enumerate(axes):
            for j, b in enumerate(axes):
                dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
        assert axes[2][2] < 0.0

    def test_boresight_target_is_centered(self):
        pursuer = PursuerState(position=Vec3(0, 0, 10), yaw=0.0, pitch=0.0, speed=0.0)
        uv = project(pursuer, Vec3(10, 0, 10))
        assert uv == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_right_offset_hand_trig(self):
        # 5 m right at 10 m forward with a 90 degree hfov: (5/10)/tan(45) = 0.5.
        pursuer = PursuerState(position=Vec3(0, 0, 10), yaw=0.0, pitch=0.0, speed=0.0)
        uv = project(pursuer, Vec3(10, -5, 10))
        assert uv is not None
        assert uv[0] == pytest.approx(0.5, abs=1e-12)
        assert uv[1] == pytest.approx(0.0, abs=1e-12)

    def test_behind_camera_absent(self):
        pursuer = PursuerState(position=Vec3(0, 0, 10), yaw=0.0, pitch=0.0, speed=0.0)
        assert project(pursuer, Vec3(-5, 0, 10)) is None

    def test_out_of_frame_absent(self):
        pursuer = PursuerState(position=Vec3(0, 0, 10), yaw=0.0, pitch=0.0, speed=0.0)
        # 60 degrees off boresight exceeds the 45 degree half fov.
        assert project(pursuer, Vec3(10, -17.4, 10)) is None

    def test_nan_point_is_out_of_frame(self):
        # A NaN offset would pass an abs(u) > 1.0 test; OffsetMessage refuses it.
        pursuer = PursuerState(position=Vec3(0, 0, 10), yaw=0.0, pitch=0.0, speed=0.0)
        pose = camera_pose(pursuer, CAM)
        for point in ((math.nan, 0.0, 10.0), (10.0, math.nan, 10.0), (10.0, 0.0, math.nan)):
            assert project_to_camera(pose, *point) is None

    def test_target_below_maps_to_positive_v(self):
        pursuer = PursuerState(position=Vec3(0, 0, 10), yaw=0.0, pitch=0.0, speed=0.0)
        uv = project(pursuer, Vec3(10, 0, 7))
        assert uv is not None and uv[1] > 0.0

    def test_centered_iff_on_boresight(self):
        rng = random.Random(4)
        for _ in range(100):
            yaw = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-1.0, 1.0)
            pursuer = PursuerState(position=Vec3(0, 0, 0), yaw=yaw, pitch=pitch, speed=0.0)
            ahead = ahead_of(pursuer, rng.uniform(1.0, 50.0))
            uv = project(pursuer, ahead)
            assert uv is not None
            assert abs(uv[0]) < 1e-9 and abs(uv[1]) < 1e-9

    def test_invariant_under_rigid_yaw_rotation(self):
        rng = random.Random(12)
        for _ in range(100):
            pursuer = PursuerState(position=Vec3(3, -2, 5), yaw=0.3, pitch=0.1, speed=0.0)
            target = Vec3(rng.uniform(2, 30), rng.uniform(-10, 10), rng.uniform(-5, 15))
            base = project(pursuer, target)
            rotation = rng.uniform(-math.pi, math.pi)
            cos_r, sin_r = math.cos(rotation), math.sin(rotation)
            rel_x, rel_y = target.x - pursuer.x, target.y - pursuer.y
            rotated_target = Vec3(
                pursuer.x + (cos_r * rel_x - sin_r * rel_y),
                pursuer.y + (sin_r * rel_x + cos_r * rel_y),
                pursuer.z + (target.z - pursuer.z),
            )
            rotated_pursuer = PursuerState(
                position=pursuer.position,
                yaw=pursuer.yaw + rotation,
                pitch=pursuer.pitch,
                speed=0.0,
            )
            rotated = project(rotated_pursuer, rotated_target)
            if base is None:
                assert rotated is None
            else:
                assert rotated is not None
                assert rotated[0] == pytest.approx(base[0], abs=1e-9)
                assert rotated[1] == pytest.approx(base[1], abs=1e-9)


def make_pursuer():
    return PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)


def stepped(pursuer, guidance, dt):
    """A copy of ``pursuer`` stepped once; ``pursuer`` itself is left as it is."""
    after = copy.copy(pursuer)
    step(after, guidance, dt)
    return after


class TestStep:
    def test_zero_guidance_is_fixed_point(self):
        pursuer = make_pursuer()
        after = stepped(pursuer, SteeringCommand(), 0.05)
        assert after.position == pursuer.position

    def test_straight_motion(self):
        after = stepped(make_pursuer(), SteeringCommand(speed=5.0), 0.05)
        assert after.position.x == pytest.approx(0.25)
        assert after.position.y == pytest.approx(0.0)

    def test_yaw_rate_euler(self):
        after = stepped(make_pursuer(), SteeringCommand(yaw_rate=0.4), 0.05)
        assert after.yaw == pytest.approx(0.02)

    def test_pitch_clamped(self):
        start = PursuerState(Vec3(0, 0, 10), 0.0, math.pi / 2 - 0.01, 0.0)
        after = stepped(start, SteeringCommand(pitch_rate=10.0), 0.05)
        assert after.pitch == pytest.approx(math.pi / 2)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step(make_pursuer(), SteeringCommand(), 0.0)

    def test_deterministic(self):
        pursuer = make_pursuer()
        cmd = SteeringCommand(yaw_rate=0.123, pitch_rate=-0.05, speed=7.7)
        a = stepped(pursuer, cmd, 0.05)
        b = stepped(pursuer, cmd, 0.05)
        assert a == b and a is not b

    def test_updates_the_pursuer_it_is_given(self):
        pursuer = make_pursuer()
        expected = reference_step(pursuer, SteeringCommand(yaw_rate=0.4, speed=5.0), 0.05)
        assert step(pursuer, SteeringCommand(yaw_rate=0.4, speed=5.0), 0.05) is None
        assert pursuer == expected

    def test_a_payload_keeps_its_position_after_later_steps(self):
        pursuer = PursuerState(Vec3(0.0, 0.0, 10.0), 0.0, 0.0, 0.0)
        telemetry = TelemetryRequest("uav-1", 0.0, pursuer.position, "SEARCH")
        lock = LockReport("uav-1", "T1", 0, 1, pursuer.position)
        before = telemetry.encode(), lock.encode()
        for _ in range(3):
            step(pursuer, SteeringCommand(yaw_rate=0.4, pitch_rate=0.1, speed=5.0), 0.05)
        assert pursuer.position != Vec3(0.0, 0.0, 10.0)
        assert telemetry.position == lock.position == Vec3(0.0, 0.0, 10.0)
        assert (telemetry.encode(), lock.encode()) == before


def reference_step(pursuer, guidance, dt):
    """The earlier step body, kept as the oracle: it builds two new pursuers.

    The first construction wraps the yaw and clamps the pitch, the position
    then moves along that attitude, and the second construction checks,
    wraps and clamps again. The pursuer it is given is left as it is.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    turned = PursuerState(
        position=pursuer.position,
        yaw=pursuer.yaw + guidance.yaw_rate * dt,
        pitch=pursuer.pitch + guidance.pitch_rate * dt,
        speed=guidance.speed,
    )
    return PursuerState(
        position=ahead_of(turned, guidance.speed * dt),  # turned holds pursuer's position
        yaw=turned.yaw,
        pitch=turned.pitch,
        speed=turned.speed,
    )


def float_bits(p):
    values = (p.x, p.y, p.z, p.yaw, p.pitch, p.speed)
    return tuple(v.hex() for v in values)


angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestStepMatchesReference:
    @given(
        position=vectors,
        yaw=angles,
        pitch=angles,
        yaw_rate=angles,
        pitch_rate=angles,
        speed=st.floats(min_value=0.0, max_value=1e4),
        dt=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_bit_identical_to_two_construction_body(
        self, position, yaw, pitch, yaw_rate, pitch_rate, speed, dt
    ):
        pursuer = PursuerState(position, yaw, pitch, 1.0)
        command = SteeringCommand(yaw_rate=yaw_rate, pitch_rate=pitch_rate, speed=speed)
        new, old = stepped(pursuer, command, dt), reference_step(pursuer, command, dt)
        assert new == old
        assert float_bits(new) == float_bits(old)  # also tells -0.0 from 0.0

    def test_negative_commanded_speed_rejected(self):
        command = SteeringCommand(speed=-1.0)
        for advance in (step, reference_step):
            pursuer = make_pursuer()
            with pytest.raises(ValueError):
                advance(pursuer, command, 0.05)
            assert pursuer == make_pursuer()


class TestStepSkipsTheConstructorChecks:
    """``step`` writes the pursuer's fields without ``PursuerState.__init__``;
    these show that wrapping, clamping and checking again would change no bit."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.pi)
    @example(-math.pi)
    @example(math.nextafter(math.pi, 0.0))
    @example(math.nextafter(-math.pi, 0.0))
    @example(math.nextafter(math.pi, 4.0))
    @example(5e-324)
    @example(-5e-324)
    @example(-0.0)
    def test_wrap_angle_is_idempotent(self, angle):
        once = wrap_angle(angle)
        assert wrap_angle(once).hex() == once.hex()

    @given(
        position=vectors,
        yaw=angles,
        pitch=angles,
        yaw_rate=angles,
        pitch_rate=angles,
        speed=st.floats(min_value=0.0, max_value=1e4),
        dt=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_stepped_pursuer_equals_a_constructed_one(
        self, position, yaw, pitch, yaw_rate, pitch_rate, speed, dt
    ):
        pursuer = PursuerState(position, yaw, pitch, 1.0)
        command = SteeringCommand(yaw_rate=yaw_rate, pitch_rate=pitch_rate, speed=speed)
        step(pursuer, command, dt)
        built = PursuerState(pursuer.position, pursuer.yaw, pursuer.pitch, pursuer.speed)
        assert pursuer == built
        assert float_bits(pursuer) == float_bits(built)


def builtin_clamp(pitch):
    """The builtin min/max pitch clamp that ``step`` once used, kept as the oracle."""
    return max(-math.pi / 2.0, min(math.pi / 2.0, pitch))


HALF_PI = math.pi / 2.0
PITCH_EDGES = [
    sign * x
    for sign in (1.0, -1.0)
    for x in (HALF_PI, math.nextafter(HALF_PI, 0.0), math.nextafter(HALF_PI, 4.0), 0.0, 1e308)
]


class TestPitchClampKeepsTheBuiltinBits:
    """``step`` clamps the pitch with two comparisons, not min and max; the
    pitch it gives has the builtin clamp's bits for every float."""

    @staticmethod
    def step_pitch(pitch, pitch_rate, dt):
        pursuer = make_pursuer()
        pursuer.pitch = pitch  # set past the constructor's own clamp
        step(pursuer, SteeringCommand(pitch_rate=pitch_rate), dt)
        return pursuer.pitch

    @pytest.mark.parametrize("pitch", PITCH_EDGES, ids=float.hex)
    def test_at_the_edges(self, pitch):
        # Adding a -0.0 rate leaves every pitch's bits as they are, -0.0 included.
        assert self.step_pitch(pitch, -0.0, 1.0).hex() == builtin_clamp(pitch).hex()

    @pytest.mark.parametrize("pitch_rate", [math.inf, -math.inf, math.nan], ids=str)
    def test_with_a_non_finite_rate(self, pitch_rate):
        expected = builtin_clamp(0.0 + pitch_rate * 0.05)
        assert self.step_pitch(0.0, pitch_rate, 0.05).hex() == expected.hex()

    @given(pitch=st.floats(), pitch_rate=st.floats())
    def test_for_any_float(self, pitch, pitch_rate):
        expected = builtin_clamp(pitch + pitch_rate * 0.05)
        assert self.step_pitch(pitch, pitch_rate, 0.05).hex() == expected.hex()

    @given(pitch=st.floats(allow_nan=False, allow_infinity=False))
    @example(pitch=-0.0)
    def test_the_constructor_clamps_every_finite_pitch_to_the_same_bits(self, pitch):
        for edge in (pitch, *PITCH_EDGES):
            built = PursuerState(Vec3(0, 0, 10), 0.0, edge, 0.0)
            assert built.pitch.hex() == builtin_clamp(edge).hex()


fovs = st.floats(min_value=1e-300, max_value=math.pi, exclude_max=True)


class TestProjectionMatchesReference:
    @given(
        position=vectors,
        yaw=angles,
        pitch=angles,
        targets=st.lists(vectors, min_size=2, max_size=6),
        hfov=fovs,
        vfov=fovs,
    )
    def test_bit_identical_to_per_call_body(self, position, yaw, pitch, targets, hfov, vfov):
        # Several targets per pose, as in a frame of a multi-target mission.
        pursuer = PursuerState(position, yaw, pitch, 0.0)
        cam = CameraParams(hfov=hfov, vfov=vfov)
        pose = camera_pose(pursuer, cam)
        for target in targets:
            new = project_to_camera(pose, target.x, target.y, target.z)
            old = reference_project(pursuer, target, cam)
            if old is None:
                assert new is None
            else:
                assert new is not None
                assert [c.hex() for c in new] == [c.hex() for c in old]

    def test_caches_do_not_enter_equality_or_repr(self):
        other = CameraParams(hfov=CAM.hfov, vfov=CAM.vfov)
        object.__setattr__(other, "tan_half_hfov", 0.0)
        assert other == CAM and hash(other) == hash(CAM) and repr(other) == repr(CAM)
        assert "tan" not in repr(CAM)
        assert CAM.tan_half_hfov == math.tan(CAM.hfov / 2.0)
        assert dataclasses.replace(other).tan_half_hfov == CAM.tan_half_hfov

    def test_fov_whose_half_tangent_is_zero_rejected(self):
        # The per-call body divided by zero here once a target was ahead.
        for fovs in ((5e-324, 1.0), (1.0, 5e-324)):
            with pytest.raises(ValueError, match="too small"):
                CameraParams(*fovs)


class TestAngles:
    def test_wrap_into_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(0.0) == 0.0

    def test_pursuer_normalizes_on_construction(self):
        p = PursuerState(Vec3(0, 0, 0), yaw=2 * math.pi + 0.25, pitch=2.0, speed=0.0)
        assert p.yaw == pytest.approx(0.25)
        assert p.pitch == pytest.approx(math.pi / 2)
