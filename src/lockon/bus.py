"""In-process publish/subscribe broker with exact topic-string routing.

Semantics are QoS-0-like: at-most-once delivery, no retained messages, no
wildcards. ``MessageBus.publish`` numbers each publisher id's messages 0, 1,
2, ... in publish order. Publishes made during a simulation tick are buffered
and handed to subscriber inboxes when the scheduler calls ``deliver()``,
sorted by (publisher_id, seq) so runs replay identically. The recipient set
of a publish is frozen at publish time: the broker keeps one sorted tuple of
recipients per topic, which a subscribe or unsubscribe to that topic replaces.

A payload is bytes, or a ``payloads`` message value: the nodes publish their
messages as values, so no bytes are made for them in-process. ``publish``
keeps a value that is ``canonical()`` as it is and replaces any other by its
encoding. No node needs a value's bytes: the proxy forwards a payload to
the mission server as it is, and ``proxy.HttpTransport`` encodes it only
where it leaves the process.

``Envelope`` checks a payload by its exact type first: one of the five wire
classes (``payloads.WIRE_CLASSES``) gets one ``canonical()`` call and no
``isinstance`` against the ``Message`` union. Any other payload (bytes, a
bytes subclass, a message subclass, anything else) takes the general test,
with the same answer. ``deliver`` appends to each recipient's inbox, which
``subscribe`` made.

Each reader reads the payload anew: ``Envelope.parsed`` gives a value's
``to_obj()``, which equals the parse of its encoding, or
``payloads.parse_json`` of the bytes; the run's event log reads a wire-class
value's ``to_obj()`` itself, and the bytes through ``parsed``. A node's
``Schema.from_envelope`` takes a value of its own schema as it is and decodes
anything else as ``Schema.decode`` does.

The broker is a plain in-memory object: it may be handed between threads as a
whole but does not accept concurrent calls.
"""

from __future__ import annotations

from typing import Callable

from .payloads import WIRE_CLASSES, Message, parse_json
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
    if name.split() != [name]:  # str.split() cuts at each str.isspace() character
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
        if type(payload) in WIRE_CLASSES:
            if payload.canonical():
                return
        elif isinstance(payload, bytes) or isinstance(payload, Message) and payload.canonical():
            return
        raise ValueError("payload must be bytes or a canonical message value")

    def parsed(self):
        """A value's ``to_obj()``, or ``parse_json`` of the bytes; ValueError if not strict JSON."""
        payload = self.payload  # bytes or a message value: __post_init__ checked it
        return parse_json(payload) if isinstance(payload, bytes) else payload.to_obj()


def _delivery_order(item: tuple[Envelope, tuple[str, ...]]) -> tuple[str, int]:
    envelope = item[0]
    return envelope.publisher_id, envelope.seq


class MessageBus:
    """Topic-routing broker with deferred, deterministic delivery.

    ``publish`` snapshots the current subscriber set and returns the delivery
    count; envelopes land in per-client inboxes on the next ``deliver()``.
    An optional observer callback sees every accepted publish in delivery
    order (used by the scheduler for event logging).
    """

    def __init__(self, observer: Callable[[Envelope], None] | None = None) -> None:
        self._recipients: dict[str, tuple[str, ...]] = {}  # valid topic -> sorted client ids
        self._inboxes: dict[str, list[Envelope]] = {}
        self._pending: list[tuple[Envelope, tuple[str, ...]]] = []
        self._next_seq: dict[str, int] = {}  # publisher id -> seq of its next envelope
        self._observer = observer

    def subscribe(self, client_id: str, topic: str) -> None:
        validate_topic(topic)
        if not client_id:
            raise ProtocolError("client_id must be nonempty")
        recipients = self._recipients.get(topic, ())
        if client_id not in recipients:
            self._recipients[topic] = tuple(sorted((*recipients, client_id)))
        self._inboxes.setdefault(client_id, [])

    def unsubscribe(self, client_id: str, topic: str) -> bool:
        recipients = self._recipients.get(topic, ())
        if client_id not in recipients:
            return False
        self._recipients[topic] = tuple(c for c in recipients if c != client_id)
        return True

    def publish(self, publisher_id: str, topic: str, payload: bytes | Message, tick: int) -> int:
        """Queue ``payload`` as the publisher's next envelope; return its delivery count.

        A message value that is not ``canonical()`` is replaced by its encoding.
        """
        try:  # a topic is validated on its first publish or subscribe
            recipients = self._recipients[topic]
        except (KeyError, TypeError):
            recipients = self._recipients.setdefault(validate_topic(topic), ())
        seq = self._next_seq.get(publisher_id, 0)
        try:  # the envelope tests canonical() once
            envelope = Envelope(topic, payload, publisher_id, seq, tick)
        except ValueError:
            if not isinstance(payload, Message):
                raise
            envelope = Envelope(topic, payload.encode(), publisher_id, seq, tick)
        self._next_seq[publisher_id] = seq + 1
        self._pending.append((envelope, recipients))
        return len(recipients)

    def deliver(self) -> int:
        """Flush pending publishes into inboxes in (publisher_id, seq) order.

        Returns the number of envelope deliveries performed. Most ticks hold
        one pending publish, so the sort runs only when there are two or more.
        """
        pending = self._pending
        if not pending:
            return 0
        if len(pending) > 1:
            pending.sort(key=_delivery_order)
        inboxes, observer = self._inboxes, self._observer
        delivered = 0
        for envelope, recipients in pending:
            if observer is not None:
                observer(envelope)
            for client_id in recipients:  # subscribe made each recipient's inbox
                inboxes[client_id].append(envelope)
            delivered += len(recipients)
        pending.clear()
        return delivered

    def inbox(self, client_id: str) -> list[Envelope]:
        """The client's live inbox, which ``deliver`` fills and ``drain`` empties: read only."""
        return self._inboxes.setdefault(client_id, [])

    def pending(self) -> list[tuple[Envelope, tuple[str, ...]]]:
        """The live list of publishes and their recipients, which ``publish``
        fills and ``deliver`` empties: read only."""
        return self._pending

    def drain(self, client_id: str) -> list[Envelope]:
        """Take all delivered envelopes for a client, oldest first."""
        inbox = self._inboxes.get(client_id)
        if not inbox:
            return []
        taken = inbox.copy()
        inbox.clear()
        return taken
