"""Proxy node: bridges bus topics to the mission server's HTTP API.

A telemetry or lock envelope that decodes is forwarded as a POST of its
payload as the bus carried it, a message value or bytes, and a crash report
as its ``CrashReport`` value: nothing here encodes. ``InProcessTransport``
hands the body to ``MissionStore.dispatch`` as it is, so a value is never
encoded in-process, and ``HttpTransport`` encodes it on each post, where it
leaves the run. The telemetry reply comes back on
/telemetry/response as a ``TelemetryResponse`` value, and lock reports are
acknowledged; /land disarms the proxy so no request leaves the UAV after
landing. Telemetry is tried three times, a lock report twice. A degraded
telemetry reply (three transport failures, a non-200, or a 200 that does not
decode) is counted in ``degraded_events`` and publishes nothing: the
autonomy node keeps its assignment and asks again with its next periodic
telemetry, so a lost reply cannot pass for the server's empty queue and land
the mission. Only a transport failure is retried: an HTTP answer,
even a 4xx or 5xx, is final. Retries follow at once, within the same tick:
a wall-clock wait would stall the lockstep scheduler. A 200 telemetry reply
with the same bytes as the last one that decoded is not decoded again: its
response is published again.
"""

from __future__ import annotations

import http.client
import logging

from . import bus as topics
from .bus import Envelope, MessageBus
from .payloads import (
    CrashReport,
    DecodeError,
    LockReport,
    Message,
    TelemetryRequest,
    TelemetryResponse,
)
from .server import MissionStore

log = logging.getLogger(__name__)

TELEMETRY_RETRIES = 3
LOCK_RETRIES = 1


class TransportError(Exception):
    """The mission server could not be reached or answered garbage."""


class InProcessTransport:
    """Direct, synchronous calls into a MissionStore's request dispatch."""

    def __init__(self, store: MissionStore) -> None:
        self.store = store

    def post(self, path: str, body: bytes | Message) -> tuple[int, bytes]:
        reply = self.store.dispatch("POST", path, body)
        return reply.status, reply.encode()


class HttpTransport:
    """Loopback HTTP/1.1 client that keeps one connection open across requests.

    The server closes a connection that has been idle too long. A request
    that then fails on the reused connection with a ConnectionError is sent
    once more on a new connection, so the idle close does not use up one of
    the proxy's attempts. Any other failure closes the connection, and the
    next request opens a new one.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def post(self, path: str, body: bytes | Message) -> tuple[int, bytes]:
        """POST ``body``, a message value encoded here, once; TransportError on failure."""
        if isinstance(body, Message):
            body = body.encode()
        reused = self._conn is not None
        try:
            try:
                return self._exchange(path, body)
            except ConnectionError:  # broken pipe, reset, or closed before the reply
                if not reused:
                    raise
                self.close()
                return self._exchange(path, body)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise TransportError(str(exc)) from exc

    def _exchange(self, path: str, body: bytes) -> tuple[int, bytes]:
        conn = self._connection()
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


class ProxyNode:
    """Serial request pipeline between the bus and the server transport."""

    CLIENT_ID = "proxy"

    def __init__(self, bus: MessageBus, transport) -> None:
        self.transport = transport
        self.active = True
        self.degraded_events = 0
        # The last 200 telemetry reply that decoded: (its bytes, the decoded
        # response). The server answers with the same bytes until its queue
        # changes, so most replies are a hit.
        self._last_reply: tuple[bytes, TelemetryResponse] | None = None
        self._bus = bus
        bus.subscribe(self.CLIENT_ID, topics.TELEMETRY)
        bus.subscribe(self.CLIENT_ID, topics.LOCK)
        bus.subscribe(self.CLIENT_ID, topics.LAND)

    def _post_with_retries(
        self, path: str, body: bytes | Message, attempts: int
    ) -> tuple[int, bytes] | None:
        for attempt in range(attempts):
            try:
                return self.transport.post(path, body)
            except TransportError as exc:
                log.warning("transport failure on %s (attempt %d): %s", path, attempt + 1, exc)
        return None

    def forward_telemetry(self, body: bytes | Message, tick: int = 0) -> TelemetryResponse | None:
        """POST a telemetry request and publish its reply; None if it degraded."""
        result = self._post_with_retries("/api/telemetry", body, TELEMETRY_RETRIES)
        if result is not None and result[0] == 200:
            data, last = result[1], self._last_reply
            if last is None or data != last[0]:
                try:
                    response = TelemetryResponse.decode(data)
                except DecodeError as exc:
                    log.warning("undecodable telemetry response: %s", exc)
                    last = None
                else:
                    last = self._last_reply = (data, response)
            if last is not None:
                self._bus.publish(self.CLIENT_ID, topics.TELEMETRY_RESPONSE, last[1], tick)
                return last[1]
        self.degraded_events += 1
        log.warning("degraded link: no telemetry response published")
        return None

    def forward_lock(self, body: bytes | Message) -> bool:
        """POST a lock report; true on 2xx. Only a transport failure is retried, once."""
        result = self._post_with_retries("/api/lock", body, LOCK_RETRIES + 1)
        return result is not None and 200 <= result[0] < 300

    def report_crash(self, report: CrashReport) -> bool:
        result = self._post_with_retries("/api/crash", report, 1)
        return result is not None and 200 <= result[0] < 300

    def handle_envelope(self, envelope: Envelope, tick: int) -> None:
        if envelope.topic == topics.LAND:
            self.active = False
            return
        if not self.active:
            return
        if envelope.topic == topics.TELEMETRY:
            try:
                TelemetryRequest.from_envelope(envelope)
            except DecodeError as exc:
                log.warning("dropping malformed telemetry envelope: %s", exc)
                return
            # The payload decoded, so it is a valid request body as it is.
            self.forward_telemetry(envelope.payload, tick)
        elif envelope.topic == topics.LOCK:
            try:
                report = LockReport.from_envelope(envelope)
            except DecodeError as exc:
                log.warning("dropping malformed lock envelope: %s", exc)
                return
            if not self.forward_lock(envelope.payload):
                log.error("lock report for %s was not acknowledged", report.target_id)

    def step(self, tick: int) -> None:
        for envelope in self._bus.drain(self.CLIENT_ID):
            self.handle_envelope(envelope, tick)
