"""Ground-truth kinematics for the pursuit simulation.

Everything lives in a flat-earth local ENU frame: x east, y north, z up,
meters. The pursuer is a kinematic point with yaw/pitch attitude and a
commanded speed; targets follow closed-form trajectories (stationary,
constant velocity, constant acceleration) evaluated at absolute time, so the
world state is a pure function of the tick count. Integration is forward
Euler at a fixed dt.

Yaw is measured from +x, counterclockwise positive, normalized to (-pi, pi];
pitch is positive nose-up, clamped to [-pi/2, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True, slots=True)
class Vec3:
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)

    def as_dict(self) -> dict[str, float]:
        return {"x": self.x, "y": self.y, "z": self.z}

    @classmethod
    def from_any(cls, value) -> "Vec3":
        """Build from a {'x','y','z'} mapping or a 3-element list or tuple.

        Components must be finite numbers; any other shape or value raises
        ValueError.
        """
        if isinstance(value, dict):
            try:
                x, y, z = value["x"], value["y"], value["z"]
            except KeyError as exc:
                raise ValueError(f"missing component {exc}") from None
        elif isinstance(value, (list, tuple)) and len(value) == 3:
            x, y, z = value
        elif isinstance(value, Vec3):
            return value
        else:
            raise ValueError("expected an {x, y, z} object or 3 components")
        return cls(finite_float(x), finite_float(y), finite_float(z))


def finite_float(value) -> float:
    """A JSON number (not a bool) as a finite float; ValueError otherwise."""
    if type(value) is float:
        if math.isfinite(value):
            return value
        raise ValueError(f"expected a finite number, got {value}")
    if type(value) is not int:
        raise ValueError(f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer beyond the float range") from None


ZERO3 = Vec3(0.0, 0.0, 0.0)


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True, slots=True, init=False)
class PursuerState:
    position: Vec3
    yaw: float
    pitch: float
    speed: float

    def __init__(self, position: Vec3, yaw: float, pitch: float, speed: float) -> None:
        """Check the speed, wrap the yaw and clamp the pitch; each slot is written once."""
        if speed < 0.0:
            raise ValueError("speed must be >= 0")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "yaw", wrap_angle(yaw))
        object.__setattr__(self, "pitch", max(-math.pi / 2.0, min(math.pi / 2.0, pitch)))
        object.__setattr__(self, "speed", speed)

    def forward(self) -> Vec3:
        """Unit vector along the (yaw, pitch) attitude."""
        cp = math.cos(self.pitch)
        return Vec3(cp * math.cos(self.yaw), cp * math.sin(self.yaw), math.sin(self.pitch))


class TrajectoryKind(Enum):
    STATIONARY = "stationary"
    CONSTANT_VELOCITY = "constant_velocity"
    CONSTANT_ACCELERATION = "constant_acceleration"


@dataclass(frozen=True)
class TrajectorySpec:
    kind: TrajectoryKind
    p0: Vec3
    v0: Vec3 = ZERO3
    a: Vec3 = ZERO3

    def __post_init__(self) -> None:
        if self.kind is TrajectoryKind.STATIONARY and (
            self.v0 != ZERO3 or self.a != ZERO3
        ):
            raise ValueError("stationary trajectory must have zero v0 and a")
        if self.kind is TrajectoryKind.CONSTANT_VELOCITY and self.a != ZERO3:
            raise ValueError("constant-velocity trajectory must have zero acceleration")


@dataclass(frozen=True)
class CameraParams:
    hfov: float
    vfov: float
    frame_period: float

    def __post_init__(self) -> None:
        for name, fov in (("hfov", self.hfov), ("vfov", self.vfov)):
            if not 0.0 < fov < math.pi:
                raise ValueError(f"{name} must lie strictly inside (0, pi)")
        if self.frame_period <= 0.0:
            raise ValueError("frame_period must be > 0")


@dataclass(frozen=True)
class TargetTrack:
    target_id: str
    spec: TrajectorySpec


@dataclass(frozen=True, slots=True)
class GuidanceCommand:
    """Kinematic command: body rates plus commanded speed."""

    yaw_rate: float = 0.0
    pitch_rate: float = 0.0
    speed: float = 0.0

    def __post_init__(self) -> None:
        if self.speed < 0.0:
            raise ValueError("commanded speed must be >= 0")
        if not (math.isfinite(self.yaw_rate) and math.isfinite(self.pitch_rate)):
            raise ValueError("rates must be finite")


@dataclass(frozen=True, slots=True)
class WorldState:
    time: float
    tick: int
    pursuer: PursuerState
    targets: tuple[TargetTrack, ...]


def eval_trajectory(spec: TrajectorySpec, t: float) -> Vec3:
    """Closed-form position at time t: p0 + v0*t + a*t^2/2."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    p0, v0, a = spec.p0, spec.v0, spec.a
    half_t2 = 0.5 * t * t
    return Vec3(
        (p0.x + v0.x * t) + a.x * half_t2,
        (p0.y + v0.y * t) + a.y * half_t2,
        (p0.z + v0.z * t) + a.z * half_t2,
    )


def distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance between two points."""
    if not (a.is_finite() and b.is_finite()):
        raise ValueError("distance requires finite inputs")
    dx, dy, dz = a.x - b.x, a.y - b.y, a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def project_to_camera(
    pursuer: PursuerState, target: Vec3, cam: CameraParams
) -> tuple[float, float] | None:
    """Project a world point into normalized image coordinates.

    The camera boresight is aligned with the pursuer's (yaw, pitch). The
    point is expressed in the camera triad (forward f, right r, down d);
    with a forward component f <= 0 the target is behind the camera. The
    normalized offsets are

        u = (r / f) / tan(hfov / 2)      right of center positive
        v = (d / f) / tan(vfov / 2)      below center positive

    Returns (u, v) when the target is inside the frustum (|u| <= 1 and
    |v| <= 1), None when it is behind the camera or out of frame.
    """
    # Component arithmetic; the zero terms stay, so signed zeros are kept.
    yaw, pitch = pursuer.yaw, pursuer.pitch
    cp = math.cos(pitch)
    fx, fy, fz = cp * math.cos(yaw), cp * math.sin(yaw), math.sin(pitch)
    rx, ry, rz = math.sin(yaw), -math.cos(yaw), 0.0
    # down = forward x right completes the orthonormal triad
    dx, dy, dz = fy * rz - fz * ry, fz * rx - fx * rz, fx * ry - fy * rx
    origin = pursuer.position
    px, py, pz = target.x - origin.x, target.y - origin.y, target.z - origin.z
    f = px * fx + py * fy + pz * fz
    if f <= 0.0:
        return None
    u = ((px * rx + py * ry + pz * rz) / f) / math.tan(cam.hfov / 2.0)
    v = ((px * dx + py * dy + pz * dz) / f) / math.tan(cam.vfov / 2.0)
    if abs(u) > 1.0 or abs(v) > 1.0:
        return None
    return (u, v)


def step(world: WorldState, guidance: GuidanceCommand, dt: float) -> WorldState:
    """Advance the world one tick under a guidance command.

    Attitude integrates first (yaw wraps, pitch clamps), then the position
    moves speed*dt along the updated attitude. Time is recomputed as
    tick * dt so it never drifts from the tick count.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    pursuer = world.pursuer
    yaw = wrap_angle(pursuer.yaw + guidance.yaw_rate * dt)
    pitch = max(-math.pi / 2.0, min(math.pi / 2.0, pursuer.pitch + guidance.pitch_rate * dt))
    cp = math.cos(pitch)
    travel = guidance.speed * dt
    p = pursuer.position
    # The position moves along the once-wrapped yaw; PursuerState wraps again.
    position = Vec3(
        p.x + cp * math.cos(yaw) * travel,
        p.y + cp * math.sin(yaw) * travel,
        p.z + math.sin(pitch) * travel,
    )
    new_tick = world.tick + 1
    new_pursuer = PursuerState(position, yaw, pitch, guidance.speed)
    return WorldState(new_tick * dt, new_tick, new_pursuer, world.targets)
