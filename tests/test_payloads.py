"""Wire codec round-trips and validation diagnostics."""

import codecs
import dataclasses
import json
import math
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from lockon import bus, payloads, proxy, runner
from lockon import bus as topics
from lockon.bus import Envelope, MessageBus
from lockon.payloads import (
    CrashReport,
    DecodeError,
    LockReport,
    OffsetMessage,
    TelemetryRequest,
    TelemetryResponse,
    parse_json,
)
from lockon.scenario import load_scenario
from lockon.vision import VisionNode
from lockon.world import Vec3, finite_float

from conftest import DEEP_JSON, SCHEMAS, any_text, json_values, wire_messages

SAMPLES = [
    TelemetryRequest(uav_id="uav-1", time=12.5, position=Vec3(1, 2, 3), state="SEARCH"),
    TelemetryResponse(
        has_target=True, target_id="T1", target_position=Vec3(60, 0, 10), remaining_targets=2
    ),
    TelemetryResponse(
        has_target=False, target_id=None, target_position=None, remaining_targets=0
    ),
    LockReport(
        uav_id="uav-1", target_id="T1", lock_start_tick=132, lock_end_tick=332,
        position=Vec3(112.1, 0, 10),
    ),
    OffsetMessage(x=0.25, y=-0.5, tick=42),
    CrashReport(uav_id="uav-1", time=3.0, position=Vec3(5, 5, -0.1)),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_round_trip_identity(message):
    assert type(message).decode(message.encode()) == message


def test_empty_object_names_missing_field():
    with pytest.raises(DecodeError, match="uav_id"):
        TelemetryRequest.decode(b"{}")


def test_unknown_fields_are_ignored():
    obj = json.loads(SAMPLES[0].encode())
    obj["extra_future_field"] = {"nested": True}
    assert TelemetryRequest.decode(json.dumps(obj)) == SAMPLES[0]


def test_non_json_bytes_rejected():
    with pytest.raises(DecodeError):
        OffsetMessage.decode(b"\xff\x00 garbage")


def test_non_object_rejected():
    with pytest.raises(DecodeError):
        TelemetryRequest.decode(b"[1, 2, 3]")


def test_offset_bounds_enforced_on_decode():
    with pytest.raises(DecodeError):
        OffsetMessage.decode(b'{"x": 1.5, "y": 0.0, "tick": 0}')


@given(st.floats(), st.floats())
@example(math.nan, 0.0)
@example(-1.0, math.nan)
@example(1.0, -1.0)
def test_offset_accepts_exactly_the_points_of_the_frame(x, y):
    # The earlier abs() test for every value but NaN, which it let through.
    accepted = not (math.isnan(x) or math.isnan(y) or abs(x) > 1.0 or abs(y) > 1.0)
    try:
        OffsetMessage(x, y, 0)
    except ValueError as error:
        assert not accepted and "must lie in [-1, 1]" in str(error)
    else:
        assert accepted


def test_lock_report_negative_span_rejected():
    with pytest.raises(ValueError):
        LockReport(
            uav_id="u", target_id="T1", lock_start_tick=10, lock_end_tick=5,
            position=Vec3(0, 0, 0),
        )


def test_response_requires_target_fields_when_has_target():
    with pytest.raises(ValueError):
        TelemetryResponse(
            has_target=True, target_id=None, target_position=None, remaining_targets=1
        )


def test_bad_position_names_the_field():
    with pytest.raises(DecodeError, match="position"):
        TelemetryRequest.decode(
            b'{"uav_id": "u", "time": 0, "position": {"x": 1}, "state": "SEARCH"}'
        )


MALFORMED = [
    (TelemetryRequest, '{"uav_id":"u","time":"abc","position":[0,0,0],"state":"S"}', "time"),
    (TelemetryRequest, '{"uav_id":"u","time":true,"position":[0,0,0],"state":"S"}', "time"),
    (TelemetryRequest, '{"uav_id":"u","time":1e999,"position":[0,0,0],"state":"S"}', "time"),
    (TelemetryRequest, '{"uav_id":7,"time":0,"position":[0,0,0],"state":"S"}', "uav_id"),
    (TelemetryRequest, '{"uav_id":"u","time":0,"position":[0,NaN,0],"state":"S"}', "position"),
    (TelemetryRequest, '{"uav_id":"u","time":0,"position":"123","state":"S"}', "position"),
    (TelemetryResponse, '{"has_target":true,"remaining_targets":1}', "target_id"),
    (TelemetryResponse, '{"has_target":1,"remaining_targets":1}', "has_target"),
    (TelemetryResponse, '{"has_target":false,"remaining_targets":-1}', "remaining_targets"),
    (LockReport,
     '{"uav_id":"u","target_id":"T","lock_start_tick":1.5,"lock_end_tick":2,"position":[0,0,0]}',
     "lock_start_tick"),
    (LockReport,
     '{"uav_id":"u","target_id":"T","lock_start_tick":9,"lock_end_tick":2,"position":[0,0,0]}',
     "lock_end_tick"),
    (OffsetMessage, '{"x":{},"y":0,"tick":0}', "x"),
    (OffsetMessage, '{"x":NaN,"y":0,"tick":0}', "x"),
    (OffsetMessage, '{"x":0,"y":-Infinity,"tick":0}', "y"),
    (OffsetMessage, '{"x":0,"y":0,"tick":false}', "tick"),
    (OffsetMessage, '{"x":0,"y":0,"tick":' + "9" * 400 + ".0}", "tick"),
    (CrashReport, '{"uav_id":"u","time":' + "9" * 400 + ',"position":[0,0,0]}', "time"),
]


@pytest.mark.parametrize(
    "schema, body, field", MALFORMED,
    ids=[f"{schema.__name__}-{field}-{i}" for i, (schema, _, field) in enumerate(MALFORMED)],
)
def test_malformed_field_is_a_decode_error_naming_it(schema, body, field):
    with pytest.raises(DecodeError, match=field):
        schema.decode(body)


@pytest.mark.parametrize(
    "body", [b"[" * 100_000, b'{"x": ' + b"1" * 5000 + b"}"], ids=["deep-nesting", "5000-digits"]
)
def test_pathological_json_is_a_decode_error(body):
    with pytest.raises(DecodeError):
        OffsetMessage.decode(body)


def test_to_obj_is_the_decoded_encoding():
    for message in SAMPLES:
        assert message.to_obj() == json.loads(message.encode())


def json_objects(schema):
    """Objects keyed mostly by the schema's own fields, with arbitrary values."""
    names = [f.name for f in dataclasses.fields(schema)]
    keys = st.sampled_from(names + ["x", "y", "z"]) | st.text(max_size=4)
    return st.dictionaries(keys, json_values, max_size=len(names) + 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCHEMAS).flatmap(lambda s: st.tuples(st.just(s), json_objects(s))))
def test_decode_raises_nothing_but_decode_error(case):
    schema, obj = case
    try:
        decoded = schema.decode(json.dumps(obj))
    except DecodeError:
        return
    assert schema.decode(decoded.encode()) == decoded


finite = st.floats(allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)
ticks = st.integers(min_value=0, max_value=2**53)
unit = st.floats(min_value=-1.0, max_value=1.0)

MESSAGES = st.one_of(
    st.builds(TelemetryRequest, st.text(), finite, vectors, st.text()),
    st.builds(TelemetryResponse, st.just(True), st.text(), vectors, st.integers(min_value=0)),
    st.builds(TelemetryResponse, st.just(False), st.none(), st.none(), st.integers(min_value=0)),
    st.tuples(ticks, ticks).map(sorted).flatmap(
        lambda span: st.builds(LockReport, st.text(), st.text(), st.just(span[0]),
                               st.just(span[1]), vectors)
    ),
    st.builds(OffsetMessage, unit, unit, ticks),
    st.builds(CrashReport, st.text(), finite, vectors),
)


@settings(max_examples=300, deadline=None)
@given(MESSAGES)
def test_decode_inverts_encode(message):
    assert type(message).decode(message.encode()) == message


class NaNOffsetVision(VisionNode):
    """Vision that also publishes a NaN offset with every frame."""

    def step(self, tick, frame):
        super().step(tick, frame)
        if frame is not None:
            nan = b'{"x":NaN,"y":0.0,"tick":%d}' % tick
            self._bus.publish(self.CLIENT_ID, topics.IMAGE_MESSAGE, nan, tick)


def flight(result):
    """State transitions plus the /lock and /land messages of a run."""
    return [
        e for e in result.event_log
        if e["kind"] == "fsm" or e.get("topic") in (topics.LOCK, topics.LAND)
    ]


def test_run_fed_nan_offsets_finishes_like_a_clean_run(monkeypatch):
    scenario = load_scenario("moving_target")
    clean = runner.run(scenario)
    monkeypatch.setattr(runner, "VisionNode", NaNOffsetVision)
    fed = runner.run(scenario)
    # The autonomy node drops the undecodable offsets, so the mission flies as before.
    assert fed.terminated_by == clean.terminated_by == "land"
    assert flight(fed) == flight(clean)
    assert fed.report.per_target[0].locked
    # The NaN envelopes are logged without their payload, so the JSONL stays
    # strict JSON, and the report does not count them as containment.
    malformed = [e for e in fed.event_log if e.get("malformed")]
    assert malformed and all(
        e["payload"] is None and e["topic"] == topics.IMAGE_MESSAGE for e in malformed
    )
    for line in runner.event_log_to_jsonl(fed.event_log).splitlines():
        json.loads(line, parse_constant=reject_constant)
    assert fed.report.per_target == clean.report.per_target


def reject_constant(token):
    raise ValueError(f"non-finite token {token} in the event log")


class NaNValueVision(VisionNode):
    """Vision that publishes an offset of x = NaN in place of each offset.

    ``OffsetMessage`` refuses NaN, so the value is built past its own check,
    as ``unchecked`` builds one. It publishes the message as a value, or,
    with ``as_bytes``, as its encoding.
    """

    as_bytes = False

    def step(self, tick, frame):
        publish = self._bus.publish

        def publish_nan(publisher_id, topic, message, tick):
            nan = unchecked(OffsetMessage, (float("nan"), 0.0, tick))
            return publish(publisher_id, topic, nan.encode() if self.as_bytes else nan, tick)

        self._bus.publish = publish_nan
        try:
            super().step(tick, frame)
        finally:
            del self._bus.publish


def test_a_non_finite_offset_value_is_logged_and_dropped_as_its_bytes(monkeypatch):
    scenario = load_scenario("moving_target")
    monkeypatch.setattr(runner, "VisionNode", NaNValueVision)
    by_value = runner.run(scenario)
    monkeypatch.setattr(NaNValueVision, "as_bytes", True)
    by_bytes = runner.run(scenario)
    offsets = [e for e in by_value.event_log if e.get("topic") == topics.IMAGE_MESSAGE]
    assert offsets and all(e["payload"] is None and e["malformed"] for e in offsets)
    # The autonomy node drops every offset, so no camera lock is flown.
    assert all(e["to"] != "LOCK" for e in by_value.event_log if e["kind"] == "fsm")
    assert not by_value.report.per_target[0].locked
    text = runner.event_log_to_jsonl(by_value.event_log)
    assert text == runner.event_log_to_jsonl(by_bytes.event_log)
    for line in text.splitlines():
        json.loads(line, parse_constant=reject_constant)


# --- The compiled codec against the json module ------------------------------

def canonical_dumps(message) -> bytes:
    """The encoding the codec must reproduce byte for byte."""
    return json.dumps(message.to_obj(), sort_keys=True, separators=(",", ":")).encode()


def unchecked(schema, values):
    """A schema instance holding any field values, past its own validation."""
    message = object.__new__(schema)
    for field, value in zip(dataclasses.fields(schema), values):
        object.__setattr__(message, field.name, value)
    return message


# Values the field types do not declare as well as the ones they do.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, 5e-324, float("nan"), float("inf"), float("-inf")]),
    any_text,
)
undeclared = scalars | st.lists(scalars, max_size=3) | st.dictionaries(any_text, scalars, max_size=3)
loose_vectors = st.none() | st.builds(Vec3, scalars, scalars, scalars)


def loose_messages(schema):
    kinds = [loose_vectors if f.type in ("Vec3", "Vec3 | None") else undeclared
             for f in dataclasses.fields(schema)]
    return st.tuples(*kinds).map(lambda values: unchecked(schema, values))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCHEMAS).flatmap(loose_messages))
def test_encode_is_byte_identical_to_json_dumps(message):
    try:
        expected = canonical_dumps(message)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            message.encode()
        return
    assert message.encode() == expected


@settings(max_examples=200, deadline=None)
@given(MESSAGES)
def test_encode_of_valid_messages_is_byte_identical_to_json_dumps(message):
    assert message.encode() == canonical_dumps(message)


def reference_decode(schema, data):
    """The decode before the codec was compiled: json.loads, then the field converters."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise DecodeError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DecodeError("payload must be a JSON object")
    hints = {f.name: f.type for f in dataclasses.fields(schema)}
    values = {}
    for name, kind in hints.items():
        raw = obj.get(name)
        if raw is None:
            if not kind.endswith("| None"):
                raise DecodeError(f"missing required field {name!r}")
            values[name] = None
            continue
        try:
            if kind.startswith("Vec3"):
                values[name] = Vec3.from_any(raw)
            elif kind == "float":
                values[name] = finite_float(raw)
            elif type(raw) is not {"str": str, "int": int, "bool": bool}[kind.split(" ")[0]]:
                raise ValueError(f"expected {kind}, got {type(raw).__name__}")
            else:
                values[name] = raw
        except ValueError as exc:
            raise DecodeError(f"field {name!r}: {exc}") from None
    try:
        return schema(**values)
    except ValueError as exc:
        raise DecodeError(str(exc)) from None


def _reject(token):
    raise ValueError(token)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def strict_rule_rejects(data: bytes) -> bool:
    """Whether data is not UTF-8, or holds NaN, Infinity or an overflowing literal."""
    try:
        json.loads(data.decode("utf-8"), parse_constant=_reject, parse_float=_finite)
    except (ValueError, RecursionError):
        return True
    return False


def documents(message):
    """Payload bytes for message's schema: its encoding, spliced with noise,
    re-encoded, padded with whitespace, given an extra field or one field's
    value changed; arbitrary documents in several encodings; and plain noise."""
    valid = message.encode()
    texts = json_objects(type(message)).map(lambda obj: json.dumps(obj, ensure_ascii=False))
    encoded = st.tuples(texts, st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-32"])).map(
        lambda pair: pair[0].encode(pair[1], "surrogatepass")
    )
    spliced = st.tuples(st.integers(0, len(valid)), st.binary(max_size=12)).map(
        lambda t: valid[: t[0]] + t[1] + valid[t[0]:]
    )
    restated = st.sampled_from(["utf-8-sig", "utf-16", "utf-32"]).map(
        lambda codec: valid.decode().encode(codec)
    )
    padded = st.tuples(st.sampled_from([b"", b" ", b"\n\t"]), st.sampled_from([b"", b"\r\n"])).map(
        lambda pads: pads[0] + valid + pads[1]
    )
    noted = st.sampled_from([b"NaN", b"-Infinity", b"1e400", b"[0,{}]"]).map(
        lambda token: valid[:-1] + b',"note":' + token + b"}"
    )
    names = [f.name for f in dataclasses.fields(message)]
    one_field_changed = st.tuples(st.sampled_from(names), json_values).map(
        lambda change: json.dumps({**message.to_obj(), change[0]: change[1]}).encode()
    )
    return st.one_of(
        st.just(valid), encoded, spliced, restated, padded, noted, one_field_changed,
        st.binary(max_size=40),
    )


@settings(max_examples=300, deadline=None)
@given(MESSAGES.flatmap(lambda m: st.tuples(st.just(type(m)), documents(m))))
def test_decode_agrees_with_the_reference_decoder(case):
    schema, data = case
    try:
        expected = reference_decode(schema, data)
    except DecodeError:
        expected = None
    try:
        got = schema.decode(data)
    except DecodeError:
        got = None
    if expected is None:
        assert got is None
    elif got is None:
        assert strict_rule_rejects(data)
    else:
        assert type(got) is type(expected) and got == expected


STRICTLY_REJECTED = [
    b'{"x":0.5,"y":0,"tick":3,"note":NaN}',
    b'{"x":0.5,"y":0,"tick":3,"note":[1,{"deep":-Infinity}]}',
    b'{"x":0.5,"y":0,"tick":3,"note":1e400}',
    b'{"x":0.5,"y":0,"tick":3,"note":-' + b"9" * 400 + b'.5}',
    codecs.BOM_UTF8 + b'{"x":0.5,"y":0,"tick":3}',
    '{"x":0.5,"y":0,"tick":3}'.encode("utf-16"),
    '{"x":0.5,"y":0,"tick":3}'.encode("utf-32-le"),
    b'{"x":0.5,"y":0,"tick":3,"note":"\xed\xa0\x80"}',  # a UTF-8-encoded surrogate
]


def test_too_deep_a_document_is_a_value_error():
    with pytest.raises(ValueError, match="invalid JSON"):
        parse_json(DEEP_JSON)


@pytest.mark.parametrize("body", STRICTLY_REJECTED)
def test_strict_rule_rejects_what_json_loads_accepts(body):
    assert reference_decode(OffsetMessage, body) == OffsetMessage(0.5, 0.0, 3)
    with pytest.raises(DecodeError):
        OffsetMessage.decode(body)
    with pytest.raises(ValueError):
        parse_json(body)


class NoteVision(VisionNode):
    """Vision whose offsets carry an extra field that the strict parser refuses."""

    note = b"NaN"

    def step(self, tick, frame):
        publish = self._bus.publish

        def publish_with_note(publisher_id, topic, message, tick):
            noted = message.encode()[:-1] + b',"note":' + self.note + b"}"
            return publish(publisher_id, topic, noted, tick)

        self._bus.publish = publish_with_note
        try:
            super().step(tick, frame)
        finally:
            del self._bus.publish


@pytest.mark.parametrize("note", [b"NaN", b"1e400", DEEP_JSON], ids=["NaN", "1e400", "too deep"])
def test_nodes_drop_what_the_log_calls_malformed(monkeypatch, note):
    monkeypatch.setattr(NoteVision, "note", note)
    monkeypatch.setattr(runner, "VisionNode", NoteVision)
    result = runner.run(load_scenario("moving_target"))
    offsets = [e for e in result.event_log if e.get("topic") == topics.IMAGE_MESSAGE]
    assert offsets and all(e["malformed"] and e["payload"] is None for e in offsets)
    # The autonomy node drops the same envelopes, so no camera lock is flown
    # and the report, read from the log, agrees with the flight.
    assert all(e["to"] != "LOCK" for e in result.event_log if e["kind"] == "fsm")
    outcome = result.report.per_target[0]
    assert not outcome.locked and outcome.max_containment_s == 0.0
    for line in runner.event_log_to_jsonl(result.event_log).splitlines():
        json.loads(line, parse_constant=reject_constant)
        assert "Infinity" not in line


# --- One parse per bus envelope -----------------------------------------------

def published(payload) -> Envelope:
    """``payload``, bytes or a message value, as a subscriber receives it from the bus."""
    bus = MessageBus()
    bus.subscribe("sub", "/t")
    bus.publish("node", "/t", payload, 0)
    bus.deliver()
    (envelope,) = bus.drain("sub")
    return envelope


def outcome(read):
    """What a decoder gives: the value, or the DecodeError's text."""
    try:
        return read()
    except DecodeError as exc:
        return ("DecodeError", str(exc))


def envelope_payloads(message):
    """``documents(message)``, plus non-objects and a non-finite token in one field."""
    names = [f.name for f in dataclasses.fields(message)]
    tokens = st.sampled_from([b"NaN", b"-Infinity", b"1e400", b"-9" + b"9" * 400])
    non_finite_field = st.tuples(st.sampled_from(names), tokens).map(
        lambda change: json.dumps({**message.to_obj(), change[0]: "@"}).encode().replace(
            b'"@"', change[1]
        )
    )
    non_objects = json_values.map(lambda v: json.dumps(v).encode())
    return st.one_of(documents(message), non_finite_field, non_objects)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SCHEMAS),
    MESSAGES.flatmap(envelope_payloads),
    st.sampled_from(["published", "built"]),
)
def test_from_envelope_agrees_with_decode(schema, data, how):
    expected = outcome(lambda: schema.decode(data))
    envelope = Envelope("/t", data, "node", 0, 0) if how == "built" else published(data)
    got = outcome(lambda: schema.from_envelope(envelope))
    assert type(got) is type(expected) and got == expected


# --- A message value on the bus reads as its encoding -------------------------

def exact(message):
    """Each field with its type, floats as ``float.hex``, so that -0.0 differs from 0.0."""
    def one(v):
        if type(v) is Vec3:
            return tuple(one(c) for c in (v.x, v.y, v.z))
        return (type(v).__name__, v.hex() if type(v) is float else v)

    return [one(getattr(message, f.name)) for f in dataclasses.fields(message)]


def log_line(envelope) -> str:
    """The event-log line ``runner.run`` writes for ``envelope``."""
    entry = {"kind": "msg", "topic": envelope.topic, "payload": None}
    if envelope.payload:
        try:
            entry["payload"] = envelope.parsed()
        except ValueError:
            entry["malformed"] = True
    return runner.event_log_to_jsonl([entry])


def exact_outcome(read):
    got = outcome(read)
    return got if type(got) is tuple else (type(got), exact(got))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(SCHEMAS).flatmap(wire_messages))
def test_a_message_sent_as_a_value_reads_as_its_encoding(message):
    if message is None:
        return
    data = message.encode()
    if message.canonical():
        obj = parse_json(data)
        assert obj == message.to_obj()
        assert canonical_dumps(message) == json.dumps(
            obj, sort_keys=True, separators=(",", ":")
        ).encode() == data
        assert exact(type(message).decode(data)) == exact(message)
    by_value, by_bytes = published(message), published(data)
    assert by_value.payload is message if message.canonical() else by_value.payload == data
    assert log_line(by_value) == log_line(by_bytes)
    for schema in SCHEMAS:
        assert exact_outcome(lambda: schema.from_envelope(by_value)) == exact_outcome(
            lambda: schema.from_envelope(by_bytes)
        )


def test_no_published_payload_is_parsed_or_rebuilt_in_a_run(monkeypatch):
    scenario = load_scenario("moving_target")  # its file is parsed here, before counting
    envelope_parses, other_parses, reads, encodes, posts = [], [], [], [], []

    def counting(parse, parses):
        return lambda data: parses.append(data) or parse(data)

    monkeypatch.setattr(bus, "parse_json", counting(bus.parse_json, envelope_parses))
    monkeypatch.setattr(payloads, "parse_json", counting(payloads.parse_json, other_parses))
    for schema in SCHEMAS:
        from_envelope, encode = schema.from_envelope.__func__, schema.encode

        def reading(cls, envelope, from_envelope=from_envelope):
            value = from_envelope(cls, envelope)
            reads.append((envelope.payload, value))
            return value

        def encoding(message, encode=encode):
            data = encode(message)
            encodes.append((message, data))
            return data

        monkeypatch.setattr(schema, "from_envelope", classmethod(reading))
        monkeypatch.setattr(schema, "encode", encoding)
    post = proxy.InProcessTransport.post

    def posting(transport, path, body):
        reply = post(transport, path, body)
        posts.append((path, body, reply[1]))
        return reply

    monkeypatch.setattr(proxy.InProcessTransport, "post", posting)
    sent = []  # (topic, payload) of each publish
    publish = MessageBus.publish

    def sending(broker, publisher_id, topic, payload, tick):
        sent.append((topic, payload))
        return publish(broker, publisher_id, topic, payload, tick)

    monkeypatch.setattr(MessageBus, "publish", sending)
    result = runner.run(scenario)
    assert result.terminated_by == "land" and result.report.per_target[0].locked
    assert {topic for topic, payload in sent if payload} == {
        topics.TELEMETRY, topics.TELEMETRY_RESPONSE, topics.IMAGE_MESSAGE, topics.LOCK
    }
    # Every payload a node published is a message value or empty, and every
    # read of one gives the value itself: no parse and no field-by-field build.
    assert all(type(payload) in SCHEMAS or payload == b"" for _, payload in sent)
    assert envelope_parses == []
    assert reads and all(value is payload for payload, value in reads)
    # Nothing is encoded: each POST body is the published value itself, which
    # the mission server takes as it is.
    assert encodes == []
    forwarded = [payload for topic, payload in sent if topic in (topics.TELEMETRY, topics.LOCK)]
    bodies = [body for _, body, _ in posts]
    assert len(bodies) == len(forwarded) and all(map(operator.is_, bodies, forwarded))
    # The only parses are the proxy's, of each telemetry reply whose bytes
    # differ from the last one's, which it publishes as a value.
    changed, last = [], None
    for path, _, data in posts:
        if path == "/api/telemetry" and data != last:
            changed.append(data)
            last = data
    assert changed and len(other_parses) == len(changed)
    assert all(map(operator.is_, other_parses, changed))
