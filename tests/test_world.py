"""Kinematics: trajectories, distances, camera projection, Euler stepping."""

import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from lockon.world import (
    CameraParams,
    GuidanceCommand,
    PursuerState,
    TargetTrack,
    TrajectoryKind,
    TrajectorySpec,
    Vec3,
    WorldState,
    camera_pose,
    distance,
    eval_trajectory,
    project_to_camera,
    step,
    wrap_angle,
)

from conftest import reference_project

CAM = CameraParams(hfov=math.pi / 2, vfov=math.pi / 3, frame_period=0.1)

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)


def project(pursuer, target, cam=CAM):
    """Project one point through the frame's pose, as the scheduler does."""
    return project_to_camera(camera_pose(pursuer, cam), target.x, target.y, target.z)


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
        expected = p0 + v0.scale(t)
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

    @given(vectors, vectors, vectors)
    def test_symmetry_and_triangle_inequality(self, a, b, c):
        assert distance(a, b) == pytest.approx(distance(b, a))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-7


class TestProjection:
    def test_pose_holds_origin_triad_and_tangents(self):
        pursuer = PursuerState(position=Vec3(1, 2, 3), yaw=0.4, pitch=-0.2, speed=0.0)
        pose = camera_pose(pursuer, CAM)
        assert pose == (1.0, 2.0, 3.0, *pursuer.camera_triad(), CAM.tan_half_hfov, CAM.tan_half_vfov)

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
            ahead = pursuer.position + pursuer.forward().scale(rng.uniform(1.0, 50.0))
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
            rel = target - pursuer.position
            rotated_rel = Vec3(
                cos_r * rel.x - sin_r * rel.y, sin_r * rel.x + cos_r * rel.y, rel.z
            )
            rotated_pursuer = PursuerState(
                position=pursuer.position,
                yaw=pursuer.yaw + rotation,
                pitch=pursuer.pitch,
                speed=0.0,
            )
            rotated = project(rotated_pursuer, pursuer.position + rotated_rel)
            if base is None:
                assert rotated is None
            else:
                assert rotated is not None
                assert rotated[0] == pytest.approx(base[0], abs=1e-9)
                assert rotated[1] == pytest.approx(base[1], abs=1e-9)


def make_world(pursuer=None):
    track = TargetTrack("T1", TrajectorySpec(TrajectoryKind.STATIONARY, p0=Vec3(50, 0, 10)))
    return WorldState(
        time=0.0,
        tick=0,
        pursuer=pursuer or PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0),
        targets=(track,),
    )


class TestStep:
    def test_zero_guidance_is_fixed_point(self):
        world = make_world()
        after = step(world, GuidanceCommand(), 0.05)
        assert after.pursuer.position == world.pursuer.position
        assert after.tick == 1
        assert after.time == pytest.approx(0.05)

    def test_straight_motion(self):
        world = make_world()
        after = step(world, GuidanceCommand(speed=5.0), 0.05)
        assert after.pursuer.position.x == pytest.approx(0.25)
        assert after.pursuer.position.y == pytest.approx(0.0)

    def test_yaw_rate_euler(self):
        world = make_world()
        after = step(world, GuidanceCommand(yaw_rate=0.4), 0.05)
        assert after.pursuer.yaw == pytest.approx(0.02)

    def test_pitch_clamped(self):
        start = PursuerState(Vec3(0, 0, 10), 0.0, math.pi / 2 - 0.01, 0.0)
        after = step(make_world(start), GuidanceCommand(pitch_rate=10.0), 0.05)
        assert after.pursuer.pitch == pytest.approx(math.pi / 2)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step(make_world(), GuidanceCommand(), 0.0)

    def test_deterministic(self):
        world = make_world()
        cmd = GuidanceCommand(yaw_rate=0.123, pitch_rate=-0.05, speed=7.7)
        a = step(world, cmd, 0.05)
        b = step(world, cmd, 0.05)
        assert a == b

    def test_time_is_exactly_tick_times_dt(self):
        world = make_world()
        for _ in range(1000):
            world = step(world, GuidanceCommand(speed=1.0), 0.05)
        assert world.time == world.tick * 0.05


def reference_step(world, guidance, dt):
    """The earlier step body, kept as the oracle: it builds PursuerState twice.

    The first construction wraps the yaw, the position then moves along that
    wrapped yaw, and ``replace`` runs the validation (and the wrap) again.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    pursuer = world.pursuer
    new_pursuer = PursuerState(
        position=pursuer.position,
        yaw=pursuer.yaw + guidance.yaw_rate * dt,
        pitch=pursuer.pitch + guidance.pitch_rate * dt,
        speed=guidance.speed,
    )
    new_pursuer = dataclasses.replace(
        new_pursuer,
        position=pursuer.position + new_pursuer.forward().scale(guidance.speed * dt),
    )
    new_tick = world.tick + 1
    return WorldState(
        time=new_tick * dt, tick=new_tick, pursuer=new_pursuer, targets=world.targets
    )


def float_bits(world):
    p = world.pursuer
    values = (world.time, p.position.x, p.position.y, p.position.z, p.yaw, p.pitch, p.speed)
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
        tick=st.integers(min_value=0, max_value=10**6),
    )
    def test_bit_identical_to_two_construction_body(
        self, position, yaw, pitch, yaw_rate, pitch_rate, speed, dt, tick
    ):
        world = WorldState(
            time=tick * dt, tick=tick, pursuer=PursuerState(position, yaw, pitch, 1.0), targets=()
        )
        command = GuidanceCommand(yaw_rate=yaw_rate, pitch_rate=pitch_rate, speed=speed)
        new, old = step(world, command, dt), reference_step(world, command, dt)
        assert new == old
        assert float_bits(new) == float_bits(old)  # also tells -0.0 from 0.0

    def test_negative_commanded_speed_rejected(self):
        # GuidanceCommand itself refuses a negative speed, so pass a stand-in.
        command = SimpleNamespace(yaw_rate=0.0, pitch_rate=0.0, speed=-1.0)
        for advance in (step, reference_step):
            with pytest.raises(ValueError):
                advance(make_world(), command, 0.05)


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
        cam = CameraParams(hfov=hfov, vfov=vfov, frame_period=0.1)
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
        other = CameraParams(hfov=CAM.hfov, vfov=CAM.vfov, frame_period=CAM.frame_period)
        object.__setattr__(other, "tan_half_hfov", 0.0)
        assert other == CAM and hash(other) == hash(CAM) and repr(other) == repr(CAM)
        assert "tan" not in repr(CAM)
        assert CAM.tan_half_hfov == math.tan(CAM.hfov / 2.0)
        assert dataclasses.replace(other).tan_half_hfov == CAM.tan_half_hfov

    def test_fov_whose_half_tangent_is_zero_rejected(self):
        # The per-call body divided by zero here once a target was ahead.
        for fovs in ((5e-324, 1.0), (1.0, 5e-324)):
            with pytest.raises(ValueError, match="too small"):
                CameraParams(*fovs, frame_period=0.1)


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
