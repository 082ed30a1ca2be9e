"""Scenario files: experiment configuration for simulation runs.

A scenario is a JSON document pinning everything a run needs: seed, timing,
pursuer start, target trajectories, camera/vision parameters, control gains,
and the server transport. Loading applies defaults and validates every
field, so a loaded Scenario is always runnable and echoes the effective
configuration. Fields are read with the wire codec's converters
(``payloads.FROM_JSON``), and absent parameter keys keep the defaults of
``VisionParams``, ``ControlGains`` and ``TransportConfig``.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from urllib.parse import urlsplit

from .autonomy import ControlGains
from .payloads import FROM_JSON, read_json
from .vision import VisionParams
from .world import ZERO3, CameraParams, PursuerState, TrajectoryKind, TrajectorySpec, Vec3

BUNDLED_SCENARIOS = ("moving_target", "accelerating_target", "hovering_target")


class ScenarioError(Exception):
    """A scenario file is missing, malformed, or violates an invariant."""


@dataclass(frozen=True)
class TransportConfig:
    mode: str = "in_process"  # "in_process" | "http"
    base_url: str = "http://127.0.0.1:8080"
    # The server address, parsed from base_url once by __post_init__.
    host: str = field(init=False, repr=False, compare=False)
    port: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("in_process", "http"):
            raise ScenarioError(f"transport.mode must be in_process or http, got {self.mode!r}")
        try:
            url = urlsplit(self.base_url)
            port = url.port  # ValueError for a port that is not a number in range
        except ValueError as exc:
            raise ScenarioError(f"transport.base_url: {exc}") from None
        # The runner posts to fixed /api/... paths over plain HTTP, so no other
        # scheme, no path, query or fragment, and no port 0 could be honoured.
        if self.base_url.rstrip("/") != "http://" + url.netloc or not url.hostname or port == 0:
            raise ScenarioError(f"transport.base_url {self.base_url!r} is not http://host[:port]")
        object.__setattr__(self, "host", url.hostname)
        object.__setattr__(self, "port", port or 80)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    dt: float
    frame_period: float
    max_time: float
    telemetry_period: float
    pursuer_init: PursuerState
    targets: tuple[tuple[str, TrajectorySpec], ...]
    camera: CameraParams
    vision: VisionParams
    gains: ControlGains
    transport: TransportConfig
    uav_id: str

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ScenarioError("dt must be > 0")
        if self.max_time <= 0:
            raise ScenarioError("max_time must be > 0")
        if self.telemetry_period <= 0:
            raise ScenarioError("telemetry_period must be > 0")
        for name, value in (
            ("frame_period", self.frame_period),
            ("max_time", self.max_time),
            ("gains.camera_grace", self.gains.camera_grace),
        ):
            if not math.isfinite(value / self.dt):
                raise ScenarioError(f"{name} / dt overflows the float range")
        for name in ("k_yaw", "k_pitch"):
            # A heading error is at most pi, so one tick turns by at most gain * pi * dt.
            if not math.isfinite(getattr(self.gains, name) * math.pi * self.dt):
                raise ScenarioError(f"gains.{name} * pi * dt overflows the float range")
        # The pursuer flies for at most max_ticks + 1 steps at v_cruise or v_lock.
        start = self.pursuer_init.position
        reach = max(abs(start.x), abs(start.y), abs(start.z))
        flight = (self.max_ticks + 1) * self.dt
        for name in ("v_cruise", "v_lock"):
            if not math.isfinite(reach + getattr(self.gains, name) * flight):
                raise ScenarioError(f"gains.{name} * max_time overflows the position range")
        ratio = self.frame_period / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ScenarioError("frame_period must be a positive integer multiple of dt")
        ids = [tid for tid, _ in self.targets]
        if len(set(ids)) != len(ids):
            raise ScenarioError("target ids must be unique")

    @property
    def frame_ticks(self) -> int:
        return round(self.frame_period / self.dt)

    @property
    def max_ticks(self) -> int:
        return round(self.max_time / self.dt)


def _field(obj: dict, key: str, kind: type, default, context: str = ""):
    """``obj[key]`` read as a payload field of type ``kind``, else ``default``.

    A default of None makes the field required. A value of the wrong JSON
    type, or a non-finite number, is a ScenarioError naming the field.
    """
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{context}{key}: missing required field")
        return default
    try:
        return FROM_JSON[kind](obj[key])
    except ValueError as exc:
        raise ScenarioError(f"{context}{key}: {exc}") from None


def _section(data: dict, key: str) -> dict:
    """An optional sub-object such as ``gains``; {} when absent."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be an object, got {type(value).__name__}")
    return value


# (name, type) of each constructor field of the parameter classes; a section
# gives any of these keys, and the class's own default fills every other one.
_PARAM_FIELDS = {
    cls: [(f.name, typing.get_type_hints(cls)[f.name]) for f in fields(cls) if f.init]
    for cls in (VisionParams, ControlGains, TransportConfig)
}


def _params(data: dict, key: str, cls):
    """Section ``key`` read as a ``cls``; unknown keys are ignored."""
    section = _section(data, key)
    values = {
        name: _field(section, name, kind, None, key + ".")
        for name, kind in _PARAM_FIELDS[cls]
        if name in section
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


def _parse_target(entry: dict, index: int) -> tuple[str, TrajectorySpec]:
    context = f"targets[{index}]."
    if not isinstance(entry, dict):
        raise ScenarioError(f"targets[{index}] must be an object")
    target_id = _field(entry, "id", str, None, context)
    kind_raw = _field(entry, "kind", str, None, context)
    try:
        kind = TrajectoryKind(kind_raw)
    except ValueError as exc:
        valid = ", ".join(k.value for k in TrajectoryKind)
        raise ScenarioError(f"{context}kind must be one of {valid}, got {kind_raw!r}") from exc
    p0 = _field(entry, "p0", Vec3, None, context)
    v0 = _field(entry, "v0", Vec3, ZERO3, context)
    a = _field(entry, "a", Vec3, ZERO3, context)
    try:
        return target_id, TrajectorySpec(kind=kind, p0=p0, v0=v0, a=a)
    except ValueError as exc:
        raise ScenarioError(f"targets[{index}]: {exc}") from exc


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")

    pursuer_raw = _section(data, "pursuer")
    try:
        pursuer = PursuerState(
            position=_field(pursuer_raw, "position", Vec3, Vec3(0.0, 0.0, 10.0), "pursuer."),
            yaw=_field(pursuer_raw, "yaw", float, 0.0, "pursuer."),
            pitch=_field(pursuer_raw, "pitch", float, 0.0, "pursuer."),
            speed=_field(pursuer_raw, "speed", float, 0.0, "pursuer."),
        )
    except ValueError as exc:
        raise ScenarioError(f"pursuer: {exc}") from exc

    targets_raw = data.get("targets")
    if not isinstance(targets_raw, list):
        raise ScenarioError("targets must be a list")
    targets = tuple(_parse_target(entry, i) for i, entry in enumerate(targets_raw))

    dt = _field(data, "dt", float, 0.05)

    camera_raw = _section(data, "camera")
    try:
        camera = CameraParams(
            hfov=math.radians(_field(camera_raw, "hfov_deg", float, 90.0, "camera.")),
            vfov=math.radians(_field(camera_raw, "vfov_deg", float, 60.0, "camera.")),
        )
    except ValueError as exc:
        raise ScenarioError(f"camera: {exc}") from exc

    return Scenario(
        name=_field(data, "name", str, name),
        seed=_field(data, "seed", int, 0),
        dt=dt,
        frame_period=_field(data, "frame_period", float, 0.1),
        max_time=_field(data, "max_time", float, 60.0),
        telemetry_period=_field(data, "telemetry_period", float, 1.0),
        pursuer_init=pursuer,
        targets=targets,
        camera=camera,
        vision=_params(data, "vision", VisionParams),
        gains=_params(data, "gains", ControlGains),
        # Other transport keys, such as the retired latency_ms, are ignored.
        transport=_params(data, "transport", TransportConfig),
        uav_id=_field(data, "uav_id", str, "uav-1"),
    )


def bundled_scenario_bytes(name: str) -> bytes:
    try:
        return resources.files("lockon").joinpath(f"scenarios/{name}.json").read_bytes()
    except FileNotFoundError as exc:
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        ) from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario from a file path or a bundled name.

    The file is read by the strict payload reader (``payloads.read_json``):
    bytes that are not UTF-8, or JSON that is not strict or nests too deep,
    are a ScenarioError like any other malformed file. So is a path that
    cannot be read, such as a directory (``""`` is ``.``) or one with a NUL.
    """
    p = Path(path)
    try:
        if p.exists():
            data, default_name = p.read_bytes(), p.stem
        else:
            data, default_name = bundled_scenario_bytes(str(path)), str(path)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{str(path)!r}: cannot read: {exc}") from None
    try:
        return read_json(data, lambda doc: scenario_from_dict(doc, name=default_name))
    except ValueError as exc:  # not strict JSON; scenario_from_dict raises ScenarioError
        raise ScenarioError(f"{path}: {exc}") from None
