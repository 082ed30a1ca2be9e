"""In-process publish/subscribe broker with exact topic-string routing.

Semantics are QoS-0-like: at-most-once delivery, no retained messages, no
wildcards. Publishes made during a simulation tick are buffered and handed to
subscriber inboxes when the scheduler calls ``deliver()``, sorted by
(publisher_id, seq) so runs replay identically. The recipient set of a publish
is frozen at publish time; the broker keeps each topic's sorted recipients
until a subscribe or unsubscribe to that topic.

A payload is bytes, or a ``payloads`` message value: the nodes publish their
messages as values, so no bytes are made for them in-process.
``Publisher.send`` keeps a value that is ``canonical()`` as it is and
replaces any other by its encoding. ``Envelope.data()`` gives the bytes,
encoding a value only there, for the proxy's POST bodies.

An envelope's payload is read at most once: the first reader to call
``Envelope.parsed`` (in a run, the scheduler's event-log observer) gets
``payloads.parse_json`` of the bytes, or a value's ``to_obj()``, which is the
same object, and every later reader shares it read-only. A node's
``Schema.from_envelope`` takes a value of its own schema as it is.

The broker is a plain in-memory object: it may be handed between threads as a
whole but does not accept concurrent calls.
"""

from __future__ import annotations

from typing import Callable

from .payloads import Message, parse_json
from .world import value

# The fixed topic vocabulary used by the mission protocol.
TELEMETRY = "/telemetry"
TELEMETRY_RESPONSE = "/telemetry/response"
LAND = "/land"
SIGNAL_PROCESS_IMAGE = "/signal/process_image"
IMAGE_MESSAGE = "/image/message"
LOCK = "/lock"


class ProtocolError(Exception):
    """Malformed topic, bad sequence number, or use of a shut-down broker."""


def validate_topic(name: str) -> str:
    """Check a topic string: nonempty, leading '/', no whitespace."""
    if not isinstance(name, str) or not name:
        raise ProtocolError("topic must be a nonempty string")
    if not name.startswith("/"):
        raise ProtocolError(f"topic {name!r} must begin with '/'")
    if any(ch.isspace() for ch in name):
        raise ProtocolError(f"topic {name!r} must not contain whitespace")
    return name


_UNPARSED = object()  # Publisher.send's mark: the payload has not been parsed yet
_NOT_JSON = object()  # the payload is not strict JSON


class _ParsedOnce:
    """Keeps the payload's parse in a slot that equality, hash and repr never see.

    The frozen ``__setattr__`` refuses the slot, so it is written through its
    member descriptor, as ``world.value`` writes the fields.
    """

    __slots__ = ("_parsed",)

    def parsed(self):
        """The payload's ``parse_json`` result, shared read-only; ValueError if not strict JSON.

        A message value is canonical, so its ``to_obj()`` is the parse of its encoding.
        """
        try:
            obj = self._parsed
        except AttributeError:  # built directly rather than by Publisher.send
            obj = _UNPARSED
        if obj is _UNPARSED:
            payload = self.payload
            if isinstance(payload, Message):
                obj = payload.to_obj()
            else:
                try:
                    obj = parse_json(payload)
                except (ValueError, RecursionError):
                    obj = _NOT_JSON
            _set_parsed(self, obj)
        if obj is _NOT_JSON:
            raise ValueError("payload is not strict JSON")
        return obj


_set_parsed = _ParsedOnce.__dict__["_parsed"].__set__


@value
class Envelope(_ParsedOnce):
    """A published message as seen by subscribers.

    ``payload`` is bytes or a canonical message value: ``Publisher.send``
    encodes a value that is not canonical.
    """

    topic: str
    payload: bytes | Message
    publisher_id: str
    seq: int
    tick: int

    def data(self) -> bytes:
        """The payload's bytes; a message value is encoded on each call."""
        payload = self.payload
        return payload.encode() if isinstance(payload, Message) else payload


class MessageBus:
    """Topic-routing broker with deferred, deterministic delivery.

    ``publish`` snapshots the current subscriber set and returns the delivery
    count; envelopes land in per-client inboxes on the next ``deliver()``.
    An optional observer callback sees every accepted publish in delivery
    order (used by the scheduler for event logging).
    """

    def __init__(self, observer: Callable[[Envelope], None] | None = None) -> None:
        self._subs: dict[str, set[str]] = {}  # topic -> client ids
        self._recipients: dict[str, tuple[str, ...]] = {}  # topic -> sorted client ids
        self._inboxes: dict[str, list[Envelope]] = {}
        self._pending: list[tuple[Envelope, tuple[str, ...]]] = []
        self._last_seq: dict[str, int] = {}
        self._valid_topics: set[str] = set()
        self._observer = observer
        self._closed = False

    def subscribe(self, client_id: str, topic: str) -> None:
        if self._closed:
            raise ProtocolError("broker is shut down")
        validate_topic(topic)
        if not client_id:
            raise ProtocolError("client_id must be nonempty")
        self._subs.setdefault(topic, set()).add(client_id)
        self._recipients.pop(topic, None)
        self._inboxes.setdefault(client_id, [])

    def unsubscribe(self, client_id: str, topic: str) -> bool:
        clients = self._subs.get(topic)
        if clients is None or client_id not in clients:
            return False
        clients.discard(client_id)
        self._recipients.pop(topic, None)
        return True

    def publish(self, envelope: Envelope) -> int:
        if self._closed:
            raise ProtocolError("broker is shut down")
        topic = envelope.topic
        if type(topic) is not str or topic not in self._valid_topics:
            self._valid_topics.add(validate_topic(topic))
        last = self._last_seq.get(envelope.publisher_id)
        if last is not None and envelope.seq <= last:
            raise ProtocolError(
                f"seq {envelope.seq} from {envelope.publisher_id!r} is not "
                f"greater than previous seq {last}"
            )
        self._last_seq[envelope.publisher_id] = envelope.seq
        recipients = self._recipients.get(topic)
        if recipients is None:
            recipients = self._recipients[topic] = tuple(sorted(self._subs.get(topic, ())))
        self._pending.append((envelope, recipients))
        return len(recipients)

    def deliver(self) -> int:
        """Flush pending publishes into inboxes in (publisher_id, seq) order.

        Returns the number of envelope deliveries performed.
        """
        if not self._pending:
            return 0
        self._pending.sort(key=lambda item: (item[0].publisher_id, item[0].seq))
        delivered = 0
        for envelope, recipients in self._pending:
            if self._observer is not None:
                self._observer(envelope)
            for client_id in recipients:
                self._inboxes.setdefault(client_id, []).append(envelope)
                delivered += 1
        self._pending.clear()
        return delivered

    def drain(self, client_id: str) -> list[Envelope]:
        """Take all delivered envelopes for a client, oldest first."""
        inbox = self._inboxes.get(client_id)
        if not inbox:
            return []
        self._inboxes[client_id] = []
        return inbox

    def shutdown(self) -> None:
        self._closed = True


class Publisher:
    """Per-node publishing handle that allocates strictly increasing seqs."""

    def __init__(self, bus: MessageBus, client_id: str) -> None:
        self.bus = bus
        self.client_id = client_id
        self._next_seq = 0

    def send(self, topic: str, payload: bytes | Message, tick: int) -> int:
        if isinstance(payload, Message) and not payload.canonical():
            payload = payload.encode()
        envelope = Envelope(
            topic=topic,
            payload=payload,
            publisher_id=self.client_id,
            seq=self._next_seq,
            tick=tick,
        )
        _set_parsed(envelope, _UNPARSED)
        count = self.bus.publish(envelope)
        self._next_seq += 1
        return count
