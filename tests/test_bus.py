"""Broker behaviour: routing, ordering, idempotence, and delivery properties."""

import contextlib
import dataclasses
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from lockon.bus import Envelope, MessageBus, ProtocolError, validate_topic
from lockon.payloads import (
    WIRE_CLASSES,
    CrashReport,
    LockReport,
    Message,
    OffsetMessage,
    TelemetryRequest,
    TelemetryResponse,
)
from lockon.world import Vec3

from conftest import DEEP_JSON


def env(topic, publisher="node", seq=0, tick=0, payload=b"x"):
    return Envelope(topic=topic, payload=payload, publisher_id=publisher, seq=seq, tick=tick)


def publish(bus, topic, publisher="node", tick=0, payload=b"x"):
    return bus.publish(publisher, topic, payload, tick)


class TestTopicValidation:
    def test_accepts_protocol_topics(self):
        for name in ("/telemetry", "/telemetry/response", "/land", "/signal/process_image"):
            assert validate_topic(name) == name

    def test_rejects_missing_leading_slash(self):
        with pytest.raises(ProtocolError):
            validate_topic("telemetry")

    def test_rejects_empty_and_whitespace(self):
        with pytest.raises(ProtocolError):
            validate_topic("")
        with pytest.raises(ProtocolError):
            validate_topic("/has space")


class TestSubscribe:
    def test_subscription_receives_later_publish(self):
        bus = MessageBus()
        bus.subscribe("vision", "/signal/process_image")
        publish(bus, "/signal/process_image", publisher="autonomous")
        bus.deliver()
        received = bus.drain("vision")
        assert len(received) == 1
        assert received[0].topic == "/signal/process_image"

    def test_a_publish_holds_its_recipients_sorted_whatever_the_subscription_order(self):
        bus = MessageBus()
        for client in ("c3", "c1", "c2", "c1"):
            bus.subscribe(client, "/a")
        bus.unsubscribe("c2", "/a")
        publish(bus, "/a")
        bus.subscribe("c0", "/a")
        publish(bus, "/a")
        assert [recipients for _, recipients in bus.pending()] == [("c1", "c3"), ("c0", "c1", "c3")]

    def test_subscribe_is_idempotent(self):
        bus = MessageBus()
        bus.subscribe("vision", "/signal/process_image")
        bus.subscribe("vision", "/signal/process_image")
        count = publish(bus, "/signal/process_image")
        bus.deliver()
        assert count == 1
        assert len(bus.drain("vision")) == 1

    def test_malformed_topic_rejected(self):
        bus = MessageBus()
        with pytest.raises(ProtocolError):
            bus.subscribe("vision", "telemetry")


class TestPublish:
    def test_delivery_count_equals_subscribers(self):
        bus = MessageBus()
        for client in ("vision", "proxy", "broker-logger"):
            bus.subscribe(client, "/land")
        assert publish(bus, "/land", payload=b"") == 3

    def test_zero_subscribers_is_not_an_error(self):
        bus = MessageBus()
        assert publish(bus, "/lock") == 0

    def test_per_publisher_fifo(self):
        bus = MessageBus()
        bus.subscribe("sub", "/telemetry")
        publish(bus, "/telemetry", publisher="uav", payload=b"a")
        publish(bus, "/telemetry", publisher="uav", payload=b"b")
        bus.deliver()
        assert [(e.seq, e.payload) for e in bus.drain("sub")] == [(0, b"a"), (1, b"b")]

    def test_callers_that_share_a_publisher_id_share_one_sequence(self):
        # Two nodes under one id, interleaved across deliveries: neither
        # restarts the other's numbering, and no (publisher, seq) repeats.
        bus = MessageBus()
        bus.subscribe("sub", "/a")
        bus.subscribe("sub", "/b")
        for tick in range(3):
            bus.publish("uav", "/a", b"first", tick)
            bus.publish("uav", "/b", b"second", tick)
            bus.deliver()
        got = [(e.seq, e.topic) for e in bus.drain("sub")]
        assert got == [(0, "/a"), (1, "/b"), (2, "/a"), (3, "/b"), (4, "/a"), (5, "/b")]

    def test_a_refused_publish_takes_no_seq(self):
        bus = MessageBus()
        bus.subscribe("sub", "/t")
        with pytest.raises(ProtocolError):
            bus.publish("node", "/has space", b"x", 0)
        with pytest.raises(ValueError, match="canonical message value"):
            bus.publish("node", "/t", "{}", 0)
        publish(bus, "/t")
        bus.deliver()
        assert [e.seq for e in bus.drain("sub")] == [0]

    def test_malformed_topic_rejected_on_every_publish(self):
        bus = MessageBus()
        publish(bus, "/land")
        publish(bus, "/land")
        for _ in range(2):
            with pytest.raises(ProtocolError):
                publish(bus, "/has space")

    def test_drained_list_is_not_refilled(self):
        bus = MessageBus()
        bus.subscribe("sub", "/land")
        publish(bus, "/land")
        bus.deliver()
        first = bus.drain("sub")
        publish(bus, "/land")
        bus.deliver()
        assert [e.seq for e in first] == [0]
        assert [e.seq for e in bus.drain("sub")] == [1]
        assert bus.drain("sub") == []

    def test_inbox_is_the_live_list_that_deliver_fills_and_drain_empties(self):
        bus = MessageBus()
        bus.subscribe("sub", "/land")
        inbox = bus.inbox("sub")
        publish(bus, "/land")
        assert inbox == []  # a publish waits for deliver()
        bus.deliver()
        assert [e.seq for e in inbox] == [0]
        taken = bus.drain("sub")
        assert inbox == [] and taken is not inbox and [e.seq for e in taken] == [0]
        publish(bus, "/land")
        bus.deliver()
        assert bus.inbox("sub") is inbox and [e.seq for e in inbox] == [1]

    def test_pending_is_the_live_list_that_publish_fills_and_deliver_empties(self):
        bus = MessageBus()
        bus.subscribe("sub", "/land")
        pending = bus.pending()
        assert pending == []
        publish(bus, "/land")
        publish(bus, "/lock")  # no subscriber: still pending, with no recipient
        assert [(e.topic, e.seq, r) for e, r in pending] == [("/land", 0, ("sub",)), ("/lock", 1, ())]
        assert bus.deliver() == 1
        assert pending == [] and bus.pending() is pending
        assert bus.deliver() == 0  # nothing pending delivers nothing
        publish(bus, "/land")
        assert [e.seq for e, _ in bus.pending()] == [2] and bus.pending() is pending

    def test_empty_payload_is_legal(self):
        bus = MessageBus()
        bus.subscribe("sub", "/land")
        publish(bus, "/land", payload=b"")
        bus.deliver()
        assert bus.drain("sub")[0].payload == b""


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        bus = MessageBus()
        bus.subscribe("sub", "/lock")
        assert bus.unsubscribe("sub", "/lock") is True
        publish(bus, "/lock")
        bus.deliver()
        assert bus.drain("sub") == []

    def test_unsubscribe_without_subscription_is_false(self):
        bus = MessageBus()
        assert bus.unsubscribe("sub", "/lock") is False

    def test_lifecycle_subscribe_publish_unsubscribe_publish(self):
        bus = MessageBus()
        bus.subscribe("sub", "/lock")
        first = publish(bus, "/lock")
        bus.unsubscribe("sub", "/lock")
        second = publish(bus, "/lock")
        bus.deliver()
        assert (first, second) == (1, 0)
        assert len(bus.drain("sub")) == 1


class TestRecipientCache:
    """The broker keeps each topic's sorted recipients between subscription changes."""

    def test_a_subscription_change_moves_only_the_later_publishes(self):
        bus = MessageBus()
        bus.subscribe("b", "/lock")
        counts = [publish(bus, "/lock")]
        bus.subscribe("a", "/lock")
        counts.append(publish(bus, "/lock"))
        counts.append(publish(bus, "/lock"))
        bus.unsubscribe("b", "/lock")
        counts.append(publish(bus, "/lock"))
        bus.subscribe("c", "/other")  # another topic's change leaves /lock alone
        counts.append(publish(bus, "/lock"))
        bus.deliver()
        assert counts == [1, 2, 2, 1, 1]
        assert [e.seq for e in bus.drain("a")] == [1, 2, 3, 4]
        assert [e.seq for e in bus.drain("b")] == [0, 1, 2]
        assert bus.drain("c") == []


class TestParsed:
    """Each call to ``Envelope.parsed`` reads the payload anew."""

    def sent(self, payload):
        bus = MessageBus()
        bus.subscribe("sub", "/t")
        bus.publish("node", "/t", payload, 0)
        bus.deliver()
        (envelope,) = bus.drain("sub")
        return envelope

    def test_a_payload_that_is_not_strict_json_raises_every_time(self):
        for payload in (b"NaN", b"not json", b"", b"\xff", DEEP_JSON):
            envelope = self.sent(payload)
            for _ in range(2):
                with pytest.raises(ValueError):
                    envelope.parsed()

    def test_the_parse_is_not_part_of_the_value(self):
        parsed, fresh = env("/t", payload=b"[1]"), env("/t", payload=b"[1]")
        assert parsed.parsed() == [1]
        assert parsed == fresh and hash(parsed) == hash(fresh) and repr(parsed) == repr(fresh)
        assert dataclasses.replace(parsed) == parsed
        assert dataclasses.astuple(parsed) == ("/t", b"[1]", "node", 0, 0)


class TestEnvelopePayload:
    """An envelope holds bytes or a canonical message value, however it is built."""

    @pytest.mark.parametrize(
        "payload",
        [CrashReport("uav-1", math.nan, Vec3(0.0, 0.0, 0.0)), OffsetMessage(1, 0.0, 1), "{}", None,
         bytearray(b"{}")],
        ids=["non-finite value", "int in a float field", "str", "None", "bytearray"],
    )
    def test_anything_else_is_refused(self, payload):
        with pytest.raises(ValueError, match="canonical message value"):
            Envelope("/image/message", payload, "vision", 0, 1)

    def test_publish_tests_each_value_once(self, monkeypatch):
        calls = []
        canonical = OffsetMessage.canonical
        monkeypatch.setattr(
            OffsetMessage, "canonical", lambda self: calls.append(self) or canonical(self)
        )
        bus = MessageBus()
        bus.subscribe("sub", "/image/message")
        value, loose = OffsetMessage(0.5, 0.0, 1), OffsetMessage(1, 0.0, 1)
        publish(bus, "/image/message", payload=value)
        publish(bus, "/image/message", payload=loose)
        assert calls == [value, loose]
        bus.deliver()
        first, second = bus.drain("sub")
        assert first.payload is value and (first.seq, second.seq) == (0, 1)
        assert second.payload == loose.encode()


class TestDeliveryProperties:
    """Randomized interleavings of the four delivery guarantees."""

    TOPICS = ["/t/a", "/t/b", "/t/c", "/t/d"]
    CLIENTS = ["c1", "c2", "c3", "c4"]
    PUBLISHERS = ["p1", "p2", "p3"]

    def test_randomized_interleavings(self):
        rng = random.Random(20240817)
        bus = MessageBus()
        subscribed: dict[str, set[str]] = {c: set() for c in self.CLIENTS}
        expected: dict[str, list[tuple[str, int, bytes]]] = {c: [] for c in self.CLIENTS}
        received: dict[str, list[Envelope]] = {c: [] for c in self.CLIENTS}
        seqs = {p: 0 for p in self.PUBLISHERS}

        n_ops = 12_000
        for _ in range(n_ops):
            op = rng.random()
            client = rng.choice(self.CLIENTS)
            topic = rng.choice(self.TOPICS)
            if op < 0.25:
                bus.subscribe(client, topic)
                subscribed[client].add(topic)
            elif op < 0.40:
                removed = bus.unsubscribe(client, topic)
                assert removed == (topic in subscribed[client])
                subscribed[client].discard(topic)
            else:
                publisher = rng.choice(self.PUBLISHERS)
                payload = str(seqs[publisher]).encode()
                count = bus.publish(publisher, topic, payload, 0)
                recipients = [c for c in self.CLIENTS if topic in subscribed[c]]
                assert count == len(recipients)
                for c in recipients:
                    expected[c].append((publisher, seqs[publisher], payload))
                seqs[publisher] += 1
                bus.deliver()
                for c in self.CLIENTS:
                    received[c].extend(bus.drain(c))

        for client in self.CLIENTS:
            received[client].extend(bus.drain(client))
            # Delivery completeness: exactly the envelopes whose topic the
            # client was subscribed to at publish time, in publish order, each
            # numbered in its publisher's sequence.
            got = [(e.publisher_id, e.seq, e.payload) for e in received[client]]
            assert got == expected[client]
            # At-most-once: no duplicated (publisher, seq).
            keys = [(e.publisher_id, e.seq) for e in received[client]]
            assert len(keys) == len(set(keys))
            # Per-publisher FIFO: seqs strictly increase.
            for publisher in self.PUBLISHERS:
                got = [e.seq for e in received[client] if e.publisher_id == publisher]
                assert got == sorted(got)
                assert len(set(got)) == len(got)


class TestTopicWhitespace:
    """validate_topic's one whole-string test agrees with a per-character scan."""

    WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"
    NOT_WHITESPACE = "\u180e\u200b\u2060\ufeff"  # no str.isspace() either

    @given(st.text(st.sampled_from(WHITESPACE + NOT_WHITESPACE + "/ab") | st.characters()))
    @example("")
    @example("a\u2028")
    @example("\u200b")
    def test_refuses_exactly_the_names_with_a_whitespace_character(self, text):
        name = "/" + text
        spaced = any(ch.isspace() for ch in name)
        try:
            validate_topic(name)
        except ProtocolError:
            refused = True
        else:
            refused = False
        assert refused == spaced


@contextlib.contextmanager
def counting_canonical():
    """Count ``canonical()`` calls on every wire class (and its subclasses) inside the block."""
    calls = []
    originals = {cls: cls.canonical for cls in WIRE_CLASSES}
    try:
        for cls, original in originals.items():
            cls.canonical = lambda self, original=original: calls.append(self) or original(self)
        yield calls
    finally:
        for cls, original in originals.items():
            cls.canonical = original


class Blob(bytes):
    pass


class OffsetSubclass(OffsetMessage):
    """A message subclass: the envelope takes it only through the general test."""

    __slots__ = ()


def union_test_accepts(payload) -> bool:
    """The envelope's general payload test, which once took every payload."""
    return isinstance(payload, bytes) or isinstance(payload, Message) and payload.canonical()


unit = st.floats(-1.0, 1.0)
loose_numbers = st.floats() | st.integers(-2, 2) | st.booleans()
vectors = st.builds(Vec3, loose_numbers, loose_numbers, loose_numbers)
payloads = st.one_of(
    st.binary(max_size=8),
    st.binary(max_size=8).map(Blob),
    st.builds(OffsetMessage, unit, unit, st.integers(0, 9)),
    st.builds(OffsetMessage, st.integers(-1, 1), unit | st.integers(-1, 1), st.integers(0, 9)),
    st.builds(OffsetSubclass, unit | st.integers(-1, 1), unit, st.integers(0, 9)),
    st.builds(CrashReport, st.text(max_size=4), loose_numbers, vectors),
    st.builds(TelemetryRequest, st.text(max_size=4), loose_numbers, vectors, st.text(max_size=4)),
    st.builds(LockReport, st.text(max_size=4), st.text(max_size=4), st.just(1), st.just(2), vectors),
    st.builds(TelemetryResponse, st.booleans(), st.just("T1"), vectors, st.integers(0, 3)),
    st.none() | st.text(max_size=4) | st.integers() | st.binary(max_size=4).map(bytearray),
    st.just(object()),
)


@given(payloads)
def test_envelope_accepts_as_the_union_test_does_with_one_canonical_call(payload):
    expected = union_test_accepts(payload)
    with counting_canonical() as calls:
        try:
            Envelope("/t", payload, "node", 0, 0)
        except ValueError:
            accepted = False
        else:
            accepted = True
    assert accepted == expected
    assert len(calls) <= 1
    assert not calls or calls[0] is payload


def reference_deliver(pending, inboxes) -> int:
    """The earlier delivery loop over (envelope, recipients) pairs: one count per hop."""
    delivered = 0
    for envelope, recipients in sorted(pending, key=lambda item: (item[0].publisher_id, item[0].seq)):
        for client_id in recipients:
            inboxes.setdefault(client_id, []).append(envelope)
            delivered += 1
    pending.clear()
    return delivered


CLIENTS, TOPICS, PUBLISHERS = ["c1", "c2", "c3"], ["/a", "/b"], ["p1", "p2"]
operations = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), st.sampled_from(CLIENTS), st.sampled_from(TOPICS)),
        st.tuples(st.just("unsubscribe"), st.sampled_from(CLIENTS), st.sampled_from(TOPICS)),
        st.tuples(st.just("publish"), st.sampled_from(PUBLISHERS), st.sampled_from(TOPICS)),
        st.tuples(st.just("deliver")),
        st.tuples(st.just("drain"), st.sampled_from(CLIENTS)),
    ),
    max_size=40,
)


@given(operations)
def test_deliver_matches_the_reference_loop(ops):
    bus = MessageBus()
    subscribed: dict[str, set[str]] = {}  # topic -> clients, as the reference sees it
    pending: list = []
    inboxes: dict[str, list[Envelope]] = {}
    for op in ops:
        if op[0] == "subscribe":
            bus.subscribe(op[1], op[2])
            subscribed.setdefault(op[2], set()).add(op[1])
            inboxes.setdefault(op[1], [])
        elif op[0] == "unsubscribe":
            bus.unsubscribe(op[1], op[2])
            subscribed.get(op[2], set()).discard(op[1])
        elif op[0] == "publish":
            count = bus.publish(op[1], op[2], b"x", 0)
            recipients = tuple(sorted(subscribed.get(op[2], ())))
            assert count == len(recipients) and bus.pending()[-1][1] == recipients
            pending.append((bus.pending()[-1][0], recipients))
        elif op[0] == "deliver":
            assert bus.deliver() == reference_deliver(pending, inboxes)
        else:
            assert bus.drain(op[1]) == inboxes.get(op[1], [])
            inboxes.get(op[1], []).clear()
        for client in CLIENTS:
            assert bus.inbox(client) == inboxes.get(client, [])
