"""Ground mission server: target assignment and an append-only record store.

The store is the behavioural core and is usable in-process; the HTTP layer
wraps it for loopback deployments. ``MissionStore.dispatch`` routes every
request, in-process or HTTP:

    POST /api/telemetry  -> 200, current target assignment
    POST /api/lock       -> 201, consumes the locked target
    POST /api/crash      -> 201
    POST /api/seed       -> 200, replaces the target queue
    GET  /api/records[?kind=...] -> 200, records in insertion order

A body that does not decode (malformed JSON, a missing or mistyped field, a
non-finite number) gets 400 and an unknown endpoint 404. Each record kind
also has its own list, so ``GET /api/records?kind=Lock`` reads only the
lock records, in insertion order, however many telemetry records there are.

The HTTP layer speaks HTTP/1.1 over persistent connections, one thread per
connection. A connection idle for ``_Handler.timeout`` seconds is closed,
and closing the server ends every open connection. A request it cannot
frame gets a reply with ``Connection: close`` and ends the connection: a bad
``Content-Length`` or a body that ends short of it gets 400, a body over
MAX_BODY_BYTES 413 and a chunked body 411, on a GET too (whose body is
otherwise read and ignored). The request line gets the stdlib's answers (400
for a bad line or version, 505 from HTTP/2.0 up, 414 over 65536 bytes, 501
for another method than GET and POST). ``read_headers`` reads the header
block with the stdlib's limits, 431 for a line over MAX_LINE_BYTES or for
MAX_HEADER_LINES lines without the blank one, and answers 400 for a line
another reader could split differently: no colon, an empty name, a blank or
another byte than visible ASCII in the name (so ``Content-Length : 5``), a
CR inside the line, an obs-fold continuation line, and a repeated
``Content-Length`` or ``Transfer-Encoding``. Names match in any case and
lines may end in LF alone. Every error reply, from either layer, is
``{"error": message}`` JSON.

Assignment policy is a FIFO queue whose head stays assigned until a lock
report consumes it. Records are append-only with gap-free ids, and kept as
the objects that records replies list. A single coarse lock makes the store
safe under the threading HTTP server.

The telemetry reply depends only on the queue, so the store keeps one reply
per queue state, with its JSON bytes encoded once, on first use. Every
telemetry POST is still decoded, checked and recorded, and gets the kept
reply until a lock report or a seed changes the queue and drops it, under
the store lock. Records are never changed or removed, so the count of one
kind's records fixes their contents: the store likewise keeps one records
reply per kind, and one for all kinds, with the record count it was built
from. A read under the store lock gets that reply while the count is the
same, and otherwise lists the kept record objects in a new one; its bytes
too are encoded on first use, outside the lock. Replies, and the records
they list, are shared by the requests they answer and read-only. The HTTP
server likewise keeps the status line and ``Server`` header per status
code, and the ``Date`` text per second. Each request is logged
(``log_request``) only when ``lockon.server`` is enabled for DEBUG,
as with ``--log-level debug``.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import socket
import threading
import time as _time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from .payloads import (
    FROM_JSON,
    NO_TARGET,
    CrashReport,
    DecodeError,
    LockReport,
    TelemetryRequest,
    TelemetryResponse,
    read_json,
)
from .world import Vec3

log = logging.getLogger(__name__)

RECORD_KINDS = ("Telemetry", "Lock", "Crash")
MAX_BODY_BYTES = 1 << 20  # larger POST bodies get 413
LINGER_S = 1.0  # how long a rejected connection's unread input is drained
MAX_LINE_BYTES = 65536  # a longer header line gets 431 (the stdlib gives a request line 414)
MAX_HEADER_LINES = 100  # header lines, counting the blank one that ends them; more get 431

# One header field line: a name of visible ASCII characters other than the
# colon, the colon, optional blanks, and a value with no CR, ending in CRLF, in
# LF or (at EOF) in nothing. The value keeps trailing blanks.
_FIELD_LINE = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)(?:\r?\n)?")
_FRAMING_FIELDS = ("content-length", "transfer-encoding")  # one of each at most


@dataclass
class TargetAssignment:
    target_id: str
    position: Vec3


# The bytes of json.dumps(body, sort_keys=True); each encode still builds json's C encoder.
_REPLY_JSON = json.JSONEncoder(sort_keys=True)


class _Reply:
    """A status and a JSON body, whose bytes are encoded once, on first use, and kept.

    A reply may be shared by many requests (the store keeps its telemetry
    reply), so neither its body nor its bytes are changed after. Threads
    that race to the first use each encode the same bytes.
    """

    __slots__ = ("status", "body", "_data")

    def __init__(self, status: int, body: dict) -> None:
        self.status = status
        self.body = body
        self._data: bytes | None = None

    def encode(self) -> bytes:
        data = self._data
        if data is None:
            data = self._data = _REPLY_JSON.encode(self.body).encode()
        return data


class ApiError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _check_unique(targets: list[TargetAssignment]) -> None:
    ids = [t.target_id for t in targets]
    if len(set(ids)) != len(ids):
        raise ValueError("target ids must be unique")


def parse_targets(doc) -> list[TargetAssignment]:
    """The target queue of a ``{"targets": [{"id", "position" | "p0"}, ...]}`` document.

    ``/api/seed`` and ``lockon serve --targets`` (which takes a scenario
    file) read their document with it, through ``payloads.read_json``. A
    malformed entry, an ``id`` that is not a string or a non-finite position
    raises ValueError naming the entry.
    """
    entries = doc.get("targets") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("expected an object with a 'targets' list")
    targets = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"targets[{index}] must be an object with an 'id'")
        try:
            target_id = FROM_JSON[str](entry["id"])
        except ValueError as exc:
            raise ValueError(f"targets[{index}].id: {exc}") from None
        try:
            position = Vec3.from_any(entry.get("position", entry.get("p0")))
        except ValueError as exc:
            raise ValueError(f"targets[{index}] position: {exc}") from None
        targets.append(TargetAssignment(target_id, position))
    return targets


class MissionStore:
    """In-memory server state: target queue plus append-only records."""

    def __init__(
        self,
        targets: list[TargetAssignment] | None = None,
        clock=_time.time,
    ) -> None:
        self._lock = threading.Lock()
        self._queue: list[TargetAssignment] = list(targets or [])
        # Each record as a records reply lists it: record_id, kind, received_at, body.
        self._records: list[dict] = []
        # The same records, one list per kind, so a filtered query reads only its kind.
        self._by_kind: dict[str, list[dict]] = {kind: [] for kind in RECORD_KINDS}
        self._clock = clock
        # The telemetry reply for the current queue; None once the queue changes.
        self._telemetry_reply: _Reply | None = None
        # The records reply per kind (None for all kinds), with the record count it holds.
        self._records_replies: dict[str | None, tuple[int, _Reply]] = {}
        _check_unique(self._queue)

    # The one (method, path) -> handler table, for every transport. GET
    # handlers take the query's ``kind``, POST handlers the body.
    _ROUTES = {
        ("POST", "/api/telemetry"): "handle_telemetry",
        ("POST", "/api/lock"): "handle_lock_report",
        ("POST", "/api/crash"): "handle_crash_report",
        ("POST", "/api/seed"): "handle_seed",
        ("GET", "/api/records"): "query_records",
    }

    def dispatch(self, method: str, target: str, body: bytes = b"") -> _Reply:
        """Answer one request to ``target`` (path and query); errors become replies."""
        path, _, query = target.partition("?")
        name = self._ROUTES.get((method, path))
        try:
            if name is None:
                raise ApiError(404, f"no such endpoint {method} {path}")
            if method == "GET":
                return getattr(self, name)(parse_qs(query).get("kind", [None])[0])
            return getattr(self, name)(body)
        except ApiError as exc:
            return _Reply(exc.status, {"error": str(exc)})

    def _append(self, kind: str, body: dict) -> dict:
        record = {
            "record_id": len(self._records) + 1,
            "kind": kind,
            "received_at": self._clock(),
            "body": body,
        }
        self._records.append(record)
        self._by_kind[kind].append(record)
        return record

    def seed(self, targets: list[TargetAssignment]) -> None:
        _check_unique(targets)
        with self._lock:
            self._queue = list(targets)
            self._telemetry_reply = None

    def handle_telemetry(self, body: bytes | str) -> _Reply:
        try:
            request = TelemetryRequest.decode(body)
        except DecodeError as exc:
            raise ApiError(400, f"invalid telemetry request: {exc}") from exc
        with self._lock:
            self._append("Telemetry", request.to_obj())
            reply = self._telemetry_reply
            if reply is None:  # the queue changed since the last telemetry reply
                if self._queue:
                    head = self._queue[0]
                    response = TelemetryResponse(
                        has_target=True,
                        target_id=head.target_id,
                        target_position=head.position,
                        remaining_targets=len(self._queue),
                    )
                else:
                    response = NO_TARGET
                reply = self._telemetry_reply = _Reply(200, response.to_obj())
        return reply

    def handle_lock_report(self, body: bytes | str) -> _Reply:
        try:
            report = LockReport.decode(body)
        except DecodeError as exc:
            raise ApiError(400, f"invalid lock report: {exc}") from exc
        with self._lock:
            index = next(
                (i for i, t in enumerate(self._queue) if t.target_id == report.target_id),
                None,
            )
            if index is None:
                raise ApiError(404, f"unknown or already locked target {report.target_id!r}")
            del self._queue[index]
            self._telemetry_reply = None
            record = self._append("Lock", report.to_obj())
        return _Reply(201, {"record_id": record["record_id"], "recorded": True})

    def handle_crash_report(self, body: bytes | str) -> _Reply:
        try:
            report = CrashReport.decode(body)
        except DecodeError as exc:
            raise ApiError(400, f"invalid crash report: {exc}") from exc
        with self._lock:
            record = self._append("Crash", report.to_obj())
        return _Reply(201, {"record_id": record["record_id"], "recorded": True})

    def handle_seed(self, body: bytes | str) -> _Reply:
        try:
            targets = read_json(body, parse_targets)
            self.seed(targets)
        except ValueError as exc:
            raise ApiError(400, f"invalid seed body: {exc}") from exc
        return _Reply(200, {"seeded": len(targets)})

    def query_records(self, kind: str | None = None) -> _Reply:
        if kind is not None and kind not in RECORD_KINDS:
            raise ApiError(400, f"unknown record kind {kind!r}")
        with self._lock:
            records = self._kind(kind)
            kept = self._records_replies.get(kind)
            if kept is None or kept[0] != len(records):  # first read, or a record was added
                reply = _Reply(200, {"records": records[:]})
                kept = self._records_replies[kind] = (len(records), reply)
        return kept[1]

    # Introspection for tests; the benchmark tracer reads record_count.
    def queue_length(self) -> int:
        with self._lock:
            return len(self._queue)

    def record_count(self, kind: str | None = None) -> int:
        with self._lock:
            return len(self._kind(kind))

    def _kind(self, kind: str | None) -> list[dict]:
        return self._records if kind is None else self._by_kind.get(kind, [])


def read_headers(rfile) -> dict[str, str]:
    """Read a request's header block as ``{lower-case name: first value}``.

    A line over MAX_LINE_BYTES, or MAX_HEADER_LINES lines without the blank
    one, raise ApiError 431 (the limits of the stdlib's own reader). A line
    that is not a field (no colon, an empty name, blanks or other bytes than
    visible ASCII in the name, a CR inside it, or a continuation line
    starting with a blank) and a repeated Content-Length or
    Transfer-Encoding raise ApiError 400: each would let another reader
    frame the body differently (RFC 9112 2.2, 5.1, 5.2, 6.3). A value is
    what follows the colon and its leading blanks, as the stdlib reads it.
    """
    headers: dict[str, str] = {}
    readline = rfile.readline
    for _ in range(MAX_HEADER_LINES):
        line = readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise ApiError(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        field = _FIELD_LINE.fullmatch(line)
        if field is None:
            raise ApiError(400, f"Bad header line ({line[:100].decode('latin-1')!r})")
        name = field[1].decode().lower()
        if name not in headers:
            headers[name] = field[2].decode("latin-1")
        elif name in _FRAMING_FIELDS:
            raise ApiError(400, f"Repeated header field ({name!r})")
    raise ApiError(431, "Too many headers")


@functools.lru_cache(maxsize=8)
def protocol_version(word: str) -> tuple[int, int] | None:
    """``(major, minor)`` of a request line's version word, or None if the stdlib rejects it.

    The word is ``HTTP/`` and two dot-separated runs of at most 10 digits, as
    in the stdlib's ``parse_request``. The answers for the last few words are
    kept, since nearly every request names the same version.
    """
    if not word.startswith("HTTP/"):
        return None
    number = word[5:].split(".")
    if len(number) != 2 or not all(n.isdigit() and len(n) <= 10 for n in number):
        return None
    try:
        return int(number[0]), int(number[1])
    except ValueError:  # a digit int() does not read, like "²"
        return None


# The last Date header as (second, text), shared by every connection and
# replaced in one assignment, so that no thread reads one second's text with
# another's number.
_date = (-1, "")


class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.1 over persistent connections: one thread serves one client.

    Each reply leaves in one write with Nagle's algorithm off, so a
    kept-alive exchange never waits for a delayed ACK (RFC 896; RFC 1122
    4.2.3.2). A client silent for ``timeout`` seconds is disconnected, which
    frees its thread.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 30.0  # idle seconds before the server closes a connection

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError as exc:  # the client reset or abandoned the connection
            log.debug("http connection from %s dropped: %s", self.client_address[0], exc)

    def parse_request(self) -> bool:
        """Read the request line as the stdlib does, then the header block.

        ``self.headers`` becomes a dict from lower-case field name to the
        field's first value. On failure the error reply has been sent.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            major_minor = protocol_version(version)
            if major_minor is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            self.close_connection = major_minor < (1, 1)
            if major_minor >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:  # HTTP/0.9
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # "//host/path" would read as a scheme-relative URL, so "//" becomes "/".
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = headers = read_headers(self.rfile)
        except ApiError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if headers.get("expect", "").lower() == "100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def date_time_string(self, timestamp: float | None = None) -> str:
        """The stdlib's Date text, formatted at most once a second."""
        global _date
        now = int(_time.time() if timestamp is None else timestamp)
        second, text = _date
        if second != now:
            text = super().date_time_string(now)
            _date = (now, text)
        return text

    def _reply(self, reply: _Reply) -> None:
        """Send the status line, headers and body in one write."""
        data = reply.encode()
        status = reply.status
        if log.isEnabledFor(logging.DEBUG):  # skip formatting a line no handler shows
            self.log_request(status, len(data))
        status_head = self.server.status_heads.get(status)
        if status_head is None:
            status_head = self.server.status_heads[status] = (
                f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
            )
        head = (
            f"{status_head}Date: {self.date_time_string()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            + ("Connection: close\r\n\r\n" if self.close_connection else "\r\n")
        ).encode("latin-1")
        self.wfile.write(head if self.command == "HEAD" else head + data)

    def _reject(self, status: int, message: str) -> None:
        """Answer an error after which the input cannot be read as requests, then close.

        Closing a socket with unread input resets the connection, and the
        reset can destroy the reply before the client reads it: a client
        still sending an oversize body would see a broken pipe, not the 413.
        So the rest of the input is read and dropped, for up to LINGER_S.
        """
        self.close_connection = True
        self._reply(_Reply(status, {"error": message}))
        sock = self.request
        deadline = _time.monotonic() + LINGER_S
        try:
            sock.shutdown(socket.SHUT_WR)
            while (left := deadline - _time.monotonic()) > 0:
                sock.settimeout(left)
                if not sock.recv(65536):
                    break
        except OSError:  # the client is gone, or LINGER_S is up
            pass

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """The stdlib's own errors (bad request line, unknown method, ...) as JSON replies."""
        self.log_error("code %d, message %s", code, message)
        self._reject(code, message or self.responses[code][0])

    def _read_body(self) -> bytes | None:
        """The request body as framed by Content-Length; None after rejecting the request."""
        if "transfer-encoding" in self.headers:
            self._reject(411, "the body needs a Content-Length; Transfer-Encoding is not supported")
            return None
        length = self.headers.get("content-length", "0")
        try:  # RFC 9110: 1*DIGIT, which int() alone does not insist on ("+1", " 1", "1_0")
            size = int(length) if length.isascii() and length.isdigit() else -1
        except ValueError:  # more digits than int() converts
            size = -1
        if size < 0:
            self._reject(400, "Content-Length must be a non-negative integer")
        elif size > MAX_BODY_BYTES:
            self._reject(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        elif len(body := self.rfile.read(size)) < size:  # RFC 9112 6.3: an incomplete message
            self._reject(400, f"the input ended {size - len(body)} bytes short of Content-Length")
        else:
            return body
        return None

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        body = self._read_body()
        if body is not None:
            self._reply(self.server.store.dispatch("POST", self.path, body))

    def do_GET(self) -> None:  # noqa: N802
        # A body is read and ignored, so that it is not taken for the next request.
        if self._read_body() is not None:
            self._reply(self.server.store.dispatch("GET", self.path))

    def log_message(self, format: str, *args) -> None:
        log.debug("http " + format, *args)


class _HttpServer(ThreadingHTTPServer):
    """A threading HTTP server over a store, whose ``server_close`` also ends open connections.

    Without that, a kept-alive connection would go on being served, and
    changing the store, after the server was closed. Its handlers read the
    store and ``status_heads``, the status line plus Server header by status
    code, filled as statuses are first sent.
    """

    def __init__(self, address, store: MissionStore) -> None:
        self.store = store
        self.status_heads: dict[int, str] = {}
        # Set first: a failed bind calls server_close() inside super().__init__.
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def close_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().close_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:  # its thread reads EOF, or fails its write, and closes it
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


def make_http_server(store: MissionStore, port: int = 0, host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """Bind a threading HTTP server over the store; port 0 picks a free one."""
    return _HttpServer((host, port), store)


class ServerThread:
    """Run the HTTP server on a daemon thread; use as a context manager."""

    def __init__(self, store: MissionStore, port: int = 0) -> None:
        self.httpd = make_http_server(store, port)
        self.port = self.httpd.server_address[1]
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5.0)
