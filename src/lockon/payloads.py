"""JSON wire schemas shared by the bus nodes and the mission server.

Five payload types travel as UTF-8 JSON: telemetry requests and responses,
lock reports, camera offset messages, and crash reports. Each is a frozen,
slotted ``world.value`` dataclass. The ``wire`` decorator compiles its
``to_obj``, ``canonical`` and decoder once from its field types, to
straight-line code per schema; ``encode`` is json's encoder over ``to_obj()``.

Parse contract: every JSON document that arrives as bytes, on the bus, at
the mission server, in the run log and in a scenario file, goes through one
strict parser (``parse_json``). The bytes must be UTF-8 (no byte-order mark,
no UTF-16/32) and hold JSON with no ``NaN`` or ``Infinity`` token and no
number literal beyond the float range, anywhere in the document, nested no
deeper than the parser can go. Each document read into a value is read by
``read_json``, which names the field that holds a non-finite number. Each
reader of a bus envelope reads it anew: the run's event log parses the
bytes, and ``Schema.from_envelope(envelope)`` decodes them.

A node may also publish a message value. One that is ``canonical()`` (each
field exactly its declared type, every float finite) travels on the bus as
itself, and nothing parses it: its ``to_obj()`` equals
``parse_json(encode())``, and ``Schema.decode(encode())`` equals the value,
so the envelope reads as its encoding would. ``from_envelope`` returns such
a value of its own schema as it is. Any other value is sent as its encoding.

Decode contract: the payload must be a JSON object. A ``str`` or ``bool``
field takes a JSON value of that type, an ``int`` field a JSON integer (not
a bool), a ``float`` field a finite JSON number, and a ``Vec3`` field an
``{x, y, z}`` object or a 3-element array of finite numbers. A missing
required field, a value of the wrong type, a non-finite number or a value
the schema's own validation rejects raises DecodeError naming the field;
the mission server answers such a body with HTTP 400. Unknown fields are
ignored. Encoding is canonical: ``CANONICAL_JSON`` (the sorted, compact
writer of the event log too) over ``to_obj()``, the bytes of
``json.dumps(to_obj(), sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields

from .world import Vec3, finite_float, value


class DecodeError(Exception):
    """Payload bytes did not decode into the expected schema."""


class _NonFinite(ValueError):
    """A NaN or Infinity token, or a number literal beyond the float range."""


def _reject_constant(token: str):
    raise _NonFinite(f"invalid JSON: {token} is not a JSON number")


def _finite_literal(text: str) -> float:
    value = float(text)
    if value - value != 0.0:  # a JSON literal can only overflow to +-inf
        raise _NonFinite(f"invalid JSON: number {text[:24]} is beyond the float range")
    return value


_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_literal)


def parse_json(data: bytes | str):
    """Parse one strict JSON document; ValueError ("invalid JSON: ...") if it is not.

    Bytes must be UTF-8; ``json.loads`` would also take UTF-16/32 and a BOM.
    """
    try:
        return _STRICT_JSON.decode(data if isinstance(data, str) else data.decode("utf-8"))
    except _NonFinite:
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, too deep
        raise ValueError(f"invalid JSON: {exc}") from None


def read_json(data: bytes | str, read):
    """``read(parse_json(data))``: the one reader of a JSON document into a value.

    The strict parser stops at the first NaN, Infinity or overflowing
    literal without knowing whose value it is. So before its ValueError is
    raised, ``read`` is given json's lenient parse of the same text, and its
    own field checks raise an error naming the field. The parser's error is
    raised when ``read`` accepts that document (the value sits where no
    field reads it) or the lenient parse fails too.
    """
    try:
        obj = parse_json(data)
    except _NonFinite as error:
        try:
            obj = json.loads(data)  # UTF-8, as the strict parser decoded it
        except (ValueError, RecursionError):
            raise error from None
        read(obj)
        raise
    return read(obj)


# The one canonical JSON writer: payload encodings and event-log lines.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _exactly(kind: type):
    def convert(value):
        if type(value) is not kind:
            raise ValueError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    return convert


# field type -> (JSON value -> field value), raising ValueError for a wrong type
# or a non-finite number; the scenario loader and target parser use it too.
FROM_JSON = {
    str: _exactly(str),
    int: _exactly(int),
    bool: _exactly(bool),
    float: finite_float,
    Vec3: Vec3.from_any,
}

# field type -> test that the field value ``v`` is exactly that type, every float finite
_CANONICAL_TEST = {
    str: "type(v) is str",
    int: "type(v) is int",
    bool: "type(v) is bool",
    float: "type(v) is float and v - v == 0.0",
    Vec3: "type(v) is _Vec3 and type(v.x) is type(v.y) is type(v.z) is float"
          " and (v.x - v.x) + (v.y - v.y) + (v.z - v.z) == 0.0",
}


def wire(cls):
    """Give a frozen dataclass its wire codec and its ``canonical`` check.

    The class gets ``to_obj``, ``encode``, ``canonical``, ``decode`` and
    ``from_envelope``.

    ``to_obj``, ``canonical`` and the decoders' ``build`` are compiled here
    to straight-line code, a few statements per field, with ``exec`` as
    ``world.value`` compiles ``__init__``, so a call runs no loop over the
    fields and no ``getattr``. ``encode`` is ``CANONICAL_JSON`` over
    ``to_obj()``.
    """
    hints = typing.get_type_hints(cls)
    namespace = {
        "__name__": cls.__module__, "DecodeError": DecodeError, "_cls": cls, "_Vec3": Vec3,
    }
    items = []
    canonical = ["def canonical(self):"]
    build = [
        "def build(obj):",
        "    if type(obj) is not dict:",
        "        raise DecodeError('payload must be a JSON object')",
        "    get = obj.get",
    ]
    for i, field in enumerate(fields(cls)):
        name, kind = field.name, hints[field.name]
        optional = type(None) in typing.get_args(kind)
        if optional:
            kind = next(a for a in typing.get_args(kind) if a is not type(None))
        namespace[f"_from{i}"] = FROM_JSON[kind]
        attr = f"self.{name}"
        items.append(f"{name!r}: None if {attr} is None else {attr}.as_dict()" if kind is Vec3
                     else f"{name!r}: {attr}")
        check = _CANONICAL_TEST[kind]
        canonical += [
            f"    v = {attr}",
            f"    if not ({'v is None or ' if optional else ''}{check}):",
            "        return False",
        ]
        build += [
            f"    raw = get({name!r})",
            "    if raw is None:",
            f"        v{i} = None" if optional
            else f"        raise DecodeError({f'missing required field {name!r}'!r})",
            "    else:",
            "        try:",
            f"            v{i} = _from{i}(raw)",
            "        except ValueError as exc:",
            f"            raise DecodeError({f'field {name!r}: '!r} + str(exc)) from None",
        ]
    source = "\n".join([
        f"def to_obj(self):\n    return {{{', '.join(items)}}}",
        *canonical,
        "    return True",
        *build,
        "    try:",
        f"        return _cls({', '.join(f'v{i}' for i in range(len(items)))})",
        "    except ValueError as exc:  # the schema's own __post_init__ checks",
        "        raise DecodeError(str(exc)) from None",
    ])
    exec(source, namespace)
    build = namespace["build"]

    def encode(self) -> bytes:
        return CANONICAL_JSON.encode(self.to_obj()).encode()

    def decode(cls, data: bytes | str):
        try:
            return read_json(data, build)
        except ValueError as exc:  # not strict JSON; build raises DecodeError only
            raise DecodeError(str(exc)) from None

    def from_envelope(cls, envelope):
        """A value payload of this schema as it is; else ``decode(envelope.data())``."""
        payload = envelope.payload
        if type(payload) is cls:  # canonical, so it is what its encoding decodes to
            return payload
        return cls.decode(envelope.data())

    for method in (namespace["to_obj"], encode, namespace["canonical"]):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.decode = classmethod(decode)
    cls.from_envelope = classmethod(from_envelope)
    return cls


@wire
@value
class TelemetryRequest:
    uav_id: str
    time: float
    position: Vec3
    state: str


@wire
@value
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
@value
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
@value
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
@value
class CrashReport:
    uav_id: str
    time: float
    position: Vec3


# The reply when no target is left, or when the mission server cannot be reached.
NO_TARGET = TelemetryResponse(
    has_target=False, target_id=None, target_position=None, remaining_targets=0
)


# A message a node may publish as a value rather than as bytes (see bus.Envelope).
Message = TelemetryRequest | TelemetryResponse | LockReport | OffsetMessage | CrashReport
