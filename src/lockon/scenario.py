"""Scenario files: experiment configuration for simulation runs.

A scenario is a JSON document pinning everything a run needs: seed, timing,
pursuer start, target trajectories, camera/vision parameters, control gains,
and the server transport. Loading applies defaults and validates every
field, so a loaded Scenario is always runnable and echoes the effective
configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .autonomy import ControlGains
from .vision import VisionParams
from .world import CameraParams, PursuerState, TrajectoryKind, TrajectorySpec, Vec3, finite_float

BUNDLED_SCENARIOS = ("moving_target", "accelerating_target", "hovering_target")


class ScenarioError(Exception):
    """A scenario file is missing, malformed, or violates an invariant."""


@dataclass(frozen=True)
class TransportConfig:
    mode: str = "in_process"  # "in_process" | "http"
    base_url: str = "http://127.0.0.1:8080"

    def __post_init__(self) -> None:
        if self.mode not in ("in_process", "http"):
            raise ScenarioError(f"transport.mode must be in_process or http, got {self.mode!r}")


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
    transport: TransportConfig = field(default_factory=TransportConfig)
    uav_id: str = "uav-1"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ScenarioError("dt must be > 0")
        if self.max_time <= 0:
            raise ScenarioError("max_time must be > 0")
        if self.telemetry_period <= 0:
            raise ScenarioError("telemetry_period must be > 0")
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


def _get(obj: dict, key: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ScenarioError(f"missing required field {key!r}")
        return default
    return obj[key]


def _number(obj: dict, key: str, default: float, context: str = "") -> float:
    """A finite JSON number field, or default when absent; ScenarioError otherwise."""
    try:
        return finite_float(_get(obj, key, default))
    except ValueError as exc:
        raise ScenarioError(f"{context}{key}: {exc}") from None


def _integer(obj: dict, key: str, default: int, context: str = "") -> int:
    """A JSON integer field (not a float or bool), or default when absent."""
    value = _get(obj, key, default)
    if type(value) is not int:
        raise ScenarioError(f"{context}{key}: expected an integer, got {type(value).__name__}")
    return value


def _section(data: dict, key: str) -> dict:
    """An optional sub-object such as ``gains``; {} when absent."""
    value = _get(data, key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _vec(obj, context: str) -> Vec3:
    try:
        return Vec3.from_any(obj)
    except ValueError as exc:
        raise ScenarioError(f"{context}: not a valid vector: {exc}") from exc


def _parse_target(entry: dict, index: int) -> tuple[str, TrajectorySpec]:
    context = f"targets[{index}]"
    if not isinstance(entry, dict):
        raise ScenarioError(f"{context} must be an object")
    target_id = str(_get(entry, "id", required=True))
    kind_raw = str(_get(entry, "kind", required=True))
    try:
        kind = TrajectoryKind(kind_raw)
    except ValueError as exc:
        valid = ", ".join(k.value for k in TrajectoryKind)
        raise ScenarioError(f"{context}.kind must be one of {valid}, got {kind_raw!r}") from exc
    p0 = _vec(_get(entry, "p0", required=True), f"{context}.p0")
    v0 = _vec(_get(entry, "v0", [0, 0, 0]), f"{context}.v0")
    a = _vec(_get(entry, "a", [0, 0, 0]), f"{context}.a")
    try:
        return target_id, TrajectorySpec(kind=kind, p0=p0, v0=v0, a=a)
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")

    pursuer_raw = _section(data, "pursuer")
    pursuer = PursuerState(
        position=_vec(_get(pursuer_raw, "position", [0, 0, 10]), "pursuer.position"),
        yaw=_number(pursuer_raw, "yaw", 0.0, "pursuer."),
        pitch=_number(pursuer_raw, "pitch", 0.0, "pursuer."),
        speed=_number(pursuer_raw, "speed", 0.0, "pursuer."),
    )

    targets_raw = _get(data, "targets", required=True)
    if not isinstance(targets_raw, list):
        raise ScenarioError("targets must be a list")
    targets = tuple(_parse_target(entry, i) for i, entry in enumerate(targets_raw))

    dt = _number(data, "dt", 0.05)
    frame_period = _number(data, "frame_period", 0.1)

    camera_raw = _section(data, "camera")
    try:
        camera = CameraParams(
            hfov=math.radians(_number(camera_raw, "hfov_deg", 90.0, "camera.")),
            vfov=math.radians(_number(camera_raw, "vfov_deg", 60.0, "camera.")),
            frame_period=frame_period,
        )
    except ValueError as exc:
        raise ScenarioError(f"camera: {exc}") from exc

    vision_raw = _section(data, "vision")
    try:
        vision = VisionParams(
            p_detect=_number(vision_raw, "p_detect", 0.9, "vision."),
            detector_latency_frames=_integer(vision_raw, "detector_latency_frames", 1, "vision."),
            track_window=_number(vision_raw, "track_window", 0.35, "vision."),
            p_track_dropout=_number(vision_raw, "p_track_dropout", 0.0, "vision."),
        )
    except ValueError as exc:
        raise ScenarioError(f"vision: {exc}") from exc

    gains_raw = _section(data, "gains")
    try:
        gains = ControlGains(
            k_yaw=_number(gains_raw, "k_yaw", 0.8, "gains."),
            k_pitch=_number(gains_raw, "k_pitch", 0.8, "gains."),
            v_cruise=_number(gains_raw, "v_cruise", 8.0, "gains."),
            v_lock=_number(gains_raw, "v_lock", 6.0, "gains."),
            activation_radius=_number(gains_raw, "activation_radius", 10.0, "gains."),
            lock_duration=_number(gains_raw, "lock_duration", 10.0, "gains."),
            camera_grace=_number(gains_raw, "camera_grace", 0.5, "gains."),
        )
    except ValueError as exc:
        raise ScenarioError(f"gains: {exc}") from exc

    # Other transport keys, such as the retired latency_ms, are ignored.
    transport_raw = _section(data, "transport")
    transport = TransportConfig(
        mode=str(_get(transport_raw, "mode", "in_process")),
        base_url=str(_get(transport_raw, "base_url", "http://127.0.0.1:8080")),
    )

    try:
        return Scenario(
            name=str(_get(data, "name", name)),
            seed=_integer(data, "seed", 0),
            dt=dt,
            frame_period=frame_period,
            max_time=_number(data, "max_time", 60.0),
            telemetry_period=_number(data, "telemetry_period", 1.0),
            pursuer_init=pursuer,
            targets=targets,
            camera=camera,
            vision=vision,
            gains=gains,
            transport=transport,
            uav_id=str(_get(data, "uav_id", "uav-1")),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def bundled_scenario_text(name: str) -> str:
    try:
        return (
            resources.files("lockon").joinpath(f"scenarios/{name}.json").read_text(encoding="utf-8")
        )
    except FileNotFoundError as exc:
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        ) from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario from a file path or a bundled name."""
    p = Path(path)
    if p.exists():
        text = p.read_text(encoding="utf-8")
        default_name = p.stem
    else:
        text = bundled_scenario_text(str(path))
        default_name = str(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, name=default_name)
