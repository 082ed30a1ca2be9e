"""JSON wire schemas shared by the bus nodes and the mission server.

Five payload types travel as UTF-8 JSON: telemetry requests and responses,
lock reports, camera offset messages, and crash reports. Each is a frozen
dataclass whose codec the ``wire`` decorator derives from its field types.

Decode contract: the payload must be a JSON object. A ``str`` or ``bool``
field takes a JSON value of that type, an ``int`` field a JSON integer (not
a bool), a ``float`` field a finite JSON number, and a ``Vec3`` field an
``{x, y, z}`` object or a 3-element array of finite numbers. A missing
required field, a value of the wrong type, a non-finite number or a value
the schema's own validation rejects raises DecodeError naming the field;
the mission server answers such a body with HTTP 400. Unknown fields are
ignored. Encoding is canonical: sorted keys, no whitespace.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, fields

from .world import Vec3, finite_float


class DecodeError(Exception):
    """Payload bytes did not decode into the expected schema."""


def load_object(data: bytes | str) -> dict:
    """Parse a JSON object; anything else raises DecodeError."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, ...
        raise DecodeError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DecodeError("payload must be a JSON object")
    return obj


def _dumps(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _exactly(kind: type):
    def convert(value):
        if type(value) is not kind:
            raise ValueError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return convert


# field type -> (JSON value -> field value, field value -> JSON value or None)
_CODECS = {
    str: (_exactly(str), None),
    int: (_exactly(int), None),
    bool: (_exactly(bool), None),
    float: (finite_float, None),
    Vec3: (Vec3.from_any, Vec3.as_dict),
}


def wire(cls):
    """Give a frozen dataclass ``to_obj``, ``encode`` and a ``decode`` classmethod.

    The per-field specs (name, decoder, encoder, optional) are computed once
    here, so encoding and decoding do no introspection per call.
    """
    hints = typing.get_type_hints(cls)
    specs = []
    for field in fields(cls):
        args = typing.get_args(hints[field.name])
        optional = type(None) in args
        kind = next(a for a in args if a is not type(None)) if optional else hints[field.name]
        specs.append((field.name, *_CODECS[kind], optional))

    def to_obj(self) -> dict:
        obj = {}
        for name, _, to_json, _ in specs:
            value = getattr(self, name)
            obj[name] = value if to_json is None or value is None else to_json(value)
        return obj

    def encode(self) -> bytes:
        return _dumps(self.to_obj())

    def decode(cls, data: bytes | str):
        obj = load_object(data)
        values = {}
        for name, from_json, _, optional in specs:
            raw = obj.get(name)
            if raw is None:
                if not optional:
                    raise DecodeError(f"missing required field {name!r}")
                values[name] = None
                continue
            try:
                values[name] = from_json(raw)
            except ValueError as exc:
                raise DecodeError(f"field {name!r}: {exc}") from None
        try:
            return cls(**values)
        except ValueError as exc:  # the schema's own __post_init__ checks
            raise DecodeError(str(exc)) from None

    cls.to_obj = to_obj
    cls.encode = encode
    cls.decode = classmethod(decode)
    return cls


@wire
@dataclass(frozen=True)
class TelemetryRequest:
    uav_id: str
    time: float
    position: Vec3
    state: str


@wire
@dataclass(frozen=True)
class TelemetryResponse:
    has_target: bool
    target_id: str | None
    target_position: Vec3 | None
    remaining_targets: int

    def __post_init__(self) -> None:
        if self.has_target and (self.target_id is None or self.target_position is None):
            raise ValueError("has_target requires target_id and target_position")
        if self.remaining_targets < 0:
            raise ValueError("remaining_targets must be >= 0")


@wire
@dataclass(frozen=True)
class LockReport:
    uav_id: str
    target_id: str
    lock_start_tick: int
    lock_end_tick: int
    position: Vec3

    def __post_init__(self) -> None:
        if self.lock_start_tick < 0 or self.lock_end_tick < 0:
            raise ValueError("lock_start_tick and lock_end_tick must be >= 0")
        if self.lock_end_tick < self.lock_start_tick:
            raise ValueError("lock_end_tick must be >= lock_start_tick")


@wire
@dataclass(frozen=True)
class OffsetMessage:
    """Normalized image-plane offset of the target from camera center."""

    x: float
    y: float
    tick: int

    def __post_init__(self) -> None:
        if abs(self.x) > 1.0 or abs(self.y) > 1.0:
            raise ValueError("x and y must lie in [-1, 1]")
        if self.tick < 0:
            raise ValueError("tick must be >= 0")


@wire
@dataclass(frozen=True)
class CrashReport:
    uav_id: str
    time: float
    position: Vec3
