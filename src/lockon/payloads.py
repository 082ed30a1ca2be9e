"""JSON wire schemas shared by the bus nodes and the mission server.

Five payload types travel as UTF-8 JSON: telemetry requests and responses,
lock reports, camera offset messages, and crash reports. Each is a frozen,
slotted ``world.value`` dataclass whose codec the ``wire`` decorator
compiles once from its field types, to straight-line code per schema.

Parse contract: every payload that arrives as bytes, on the bus, at the
mission server and in the run log, goes through one strict parser
(``parse_json``). The bytes must be UTF-8 (no byte-order mark, no
UTF-16/32) and hold JSON with no ``NaN`` or ``Infinity`` token and no number
literal beyond the float range, anywhere in the document. A bus envelope is
parsed once, by its first reader (in a run, the scheduler's event log), and
later readers share that parse read-only: ``Schema.from_envelope(envelope)``
builds from it, and returns the value or raises the DecodeError that
``Schema.decode(envelope.payload)`` would.

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
ignored. Encoding is canonical: exactly the bytes of
``json.dumps(to_obj(), sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields
from json.encoder import encode_basestring_ascii

from .world import Vec3, finite_float, value


class DecodeError(Exception):
    """Payload bytes did not decode into the expected schema."""


class _NonFinite(ValueError):
    """A NaN or Infinity token, or a number literal beyond the float range."""


def _reject_constant(token: str):
    raise _NonFinite(f"{token} is not a JSON number")


def _finite_literal(text: str) -> float:
    value = float(text)
    if value - value != 0.0:  # a JSON literal can only overflow to +-inf
        raise _NonFinite(f"number {text[:24]} is beyond the float range")
    return value


_STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_literal)
_scan = _STRICT_JSON.scan_once


def parse_json(data: bytes | str):
    """Parse one strict JSON payload; ValueError or RecursionError if it is not.

    Bytes must be UTF-8; ``json.loads`` would also take UTF-16/32 and a BOM.
    """
    if not isinstance(data, str):
        data = data.decode("utf-8")
    # A payload is one unpadded value, which the scanner reads by itself; the
    # full decode, with its two whitespace matches, reads the padded ones
    # and reports what is not JSON.
    try:
        value, end = _scan(data, 0)
        if end == len(data):
            return value
    except StopIteration:
        pass
    return _STRICT_JSON.decode(data)


# Anything but a plain scalar (a container, a subclass) is left to the json
# encoder, which raises TypeError for what json.dumps cannot write either.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _value_text(value) -> str:
    """``value`` as json.dumps writes it inside the canonical document."""
    kind = type(value)
    if kind is float:
        if value - value == 0.0:  # finite
            return float.__repr__(value)
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _CANONICAL.encode(value)


def _vec3_text(value) -> str:
    """A Vec3 field as to_obj writes it, ``Vec3.as_dict`` (keys already sorted)."""
    if value is None:
        return "null"
    return (
        '{"x":' + _value_text(value.x) + ',"y":' + _value_text(value.y)
        + ',"z":' + _value_text(value.z) + "}"
    )


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

# field type -> (field value -> JSON value or None, field value -> canonical JSON text)
_TO_JSON = {Vec3: (Vec3.as_dict, _vec3_text)}

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

    ``to_obj``, ``encode``, ``canonical`` and the decoders' ``build`` are
    compiled here to straight-line code, a few statements per field, with
    ``exec`` as ``world.value`` compiles ``__init__``: the encoder joins its
    ``"key":`` prefixes in sorted-key order, and ``build`` converts each
    field in field order. So a codec call runs no loop over the fields, no
    ``getattr`` and no json set-up.
    """
    hints = typing.get_type_hints(cls)
    namespace = {
        "__name__": cls.__module__, "DecodeError": DecodeError, "_cls": cls, "_Vec3": Vec3,
    }
    items, texts = [], {}
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
        to_json, to_text = _TO_JSON.get(kind, (None, _value_text))
        namespace.update({f"_from{i}": FROM_JSON[kind], f"_text{i}": to_text})
        namespace[f"_json{i}"] = to_json
        attr = f"self.{name}"
        items.append(f"{name!r}: {attr}" if to_json is None
                     else f"{name!r}: None if {attr} is None else _json{i}({attr})")
        texts[name] = f"_text{i}({attr})"
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
    encoded = " + ".join(
        repr(("," if n else "{") + encode_basestring_ascii(name) + ":") + " + " + texts[name]
        for n, name in enumerate(sorted(texts))
    )
    source = "\n".join([
        f"def to_obj(self):\n    return {{{', '.join(items)}}}",
        f"def encode(self):\n    return ({encoded} + '}}').encode()",
        *canonical,
        "    return True",
        *build,
        "    try:",
        f"        return _cls({', '.join(f'v{i}' for i in range(len(texts)))})",
        "    except ValueError as exc:  # the schema's own __post_init__ checks",
        "        raise DecodeError(str(exc)) from None",
    ])
    exec(source, namespace)
    build = namespace["build"]

    def decode(cls, data: bytes | str):
        try:
            obj = parse_json(data)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, ...
            blame_non_finite(data, exc, lambda obj: type(obj) is dict and build(obj))
            raise DecodeError(f"not valid JSON: {exc}") from None
        return build(obj)

    def from_envelope(cls, envelope):
        """``decode(envelope.payload)``; a value payload of this schema is returned as it is."""
        payload = envelope.payload
        if type(payload) is cls:  # canonical, so it is what its encoding decodes to
            return payload
        try:
            obj = envelope.parsed()
        except ValueError:  # decode raises the error, naming a non-finite field
            return cls.decode(envelope.payload)
        return build(obj)

    for method in ("to_obj", "encode", "canonical"):
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, namespace[method])
    cls.decode = classmethod(decode)
    cls.from_envelope = classmethod(from_envelope)
    return cls


def blame_non_finite(data: bytes | str, error: Exception, read) -> None:
    """Let ``read`` name the field whose non-finite number failed ``parse_json(data)``.

    The strict parser stops at the first NaN, Infinity or overflowing
    literal without knowing whose value it is. When that is why ``error``
    was raised, ``read`` is given json's lenient parse of the same text, so
    its own field checks raise an error naming the field. Returns for any
    other parse error, or when ``read`` accepts the document (the value sits
    where no field reads it).
    """
    if not isinstance(error, _NonFinite):
        return
    text = data if isinstance(data, str) else data.decode("utf-8")
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return
    read(obj)


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


# A message a node may publish as a value rather than as bytes (see bus.Envelope).
Message = TelemetryRequest | TelemetryResponse | LockReport | OffsetMessage | CrashReport
