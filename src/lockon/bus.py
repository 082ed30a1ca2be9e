"""In-process publish/subscribe broker with exact topic-string routing.

Semantics are QoS-0-like: at-most-once delivery, no retained messages, no
wildcards. ``MessageBus.publish`` numbers each publisher id's messages 0, 1,
2, ... in publish order. Publishes made during a simulation tick are buffered
and handed to subscriber inboxes when the scheduler calls ``deliver()``,
sorted by (publisher_id, seq) so runs replay identically. The recipient set
of a publish is frozen at publish time; the broker keeps each topic's sorted
recipients until a subscribe or unsubscribe to that topic.

A payload is bytes, or a ``payloads`` message value: the nodes publish their
messages as values, so no bytes are made for them in-process. ``publish``
keeps a value that is ``canonical()`` as it is and replaces any other by its
encoding. ``Envelope.data()`` gives the bytes, encoding a value only there,
for the proxy's POST bodies.

Each reader reads the payload anew: ``Envelope.parsed`` (the run's event log
reads it) gives a value's ``to_obj()``, which equals the parse of its
encoding, or ``payloads.parse_json`` of the bytes. A node's
``Schema.from_envelope`` takes a value of its own schema as it is and decodes
anything else from ``Envelope.data()``.

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
    """A malformed topic or an empty client id."""


def validate_topic(name: str) -> str:
    """Check a topic string: nonempty, leading '/', no whitespace."""
    if not isinstance(name, str) or not name:
        raise ProtocolError("topic must be a nonempty string")
    if not name.startswith("/"):
        raise ProtocolError(f"topic {name!r} must begin with '/'")
    if any(ch.isspace() for ch in name):
        raise ProtocolError(f"topic {name!r} must not contain whitespace")
    return name


@value
class Envelope:
    """A published message as seen by subscribers.

    ``payload`` is bytes or a canonical message value, else ValueError:
    ``MessageBus.publish`` encodes a value that is not canonical.
    """

    topic: str
    payload: bytes | Message
    publisher_id: str
    seq: int
    tick: int

    def __post_init__(self) -> None:
        payload = self.payload
        if not (isinstance(payload, bytes) or isinstance(payload, Message) and payload.canonical()):
            raise ValueError("payload must be bytes or a canonical message value")

    def parsed(self):
        """A value's ``to_obj()``, or ``parse_json`` of the bytes; ValueError if not strict JSON."""
        payload = self.payload
        return payload.to_obj() if isinstance(payload, Message) else parse_json(payload)

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
        self._next_seq: dict[str, int] = {}  # publisher id -> seq of its next envelope
        self._valid_topics: set[str] = set()
        self._observer = observer

    def subscribe(self, client_id: str, topic: str) -> None:
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

    def publish(self, publisher_id: str, topic: str, payload: bytes | Message, tick: int) -> int:
        """Queue ``payload`` as the publisher's next envelope; return its delivery count.

        A message value that is not ``canonical()`` is replaced by its encoding.
        """
        if type(topic) is not str or topic not in self._valid_topics:
            self._valid_topics.add(validate_topic(topic))
        if isinstance(payload, Message) and not payload.canonical():
            payload = payload.encode()
        seq = self._next_seq.get(publisher_id, 0)
        envelope = Envelope(topic, payload, publisher_id, seq, tick)
        self._next_seq[publisher_id] = seq + 1
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
