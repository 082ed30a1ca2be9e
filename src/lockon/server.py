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
non-finite number) gets 400, an unknown endpoint 404, and an HTTP body over
MAX_BODY_BYTES 413; every error reply is ``{"error": message}``.

Assignment policy is a FIFO queue whose head stays assigned until a lock
report consumes it. Records are append-only with gap-free ids. A single
coarse lock makes the store safe under the threading HTTP server.

The module also hosts the loopback-HTTP latency harness.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import statistics
import threading
import time as _time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from .payloads import (
    FROM_JSON,
    CrashReport,
    DecodeError,
    LockReport,
    TelemetryRequest,
    TelemetryResponse,
    load_object,
)
from .world import Vec3

log = logging.getLogger(__name__)

RECORD_KINDS = ("Telemetry", "Lock", "Crash")
MAX_BODY_BYTES = 1 << 20  # larger POST bodies get 413


@dataclass
class MissionRecord:
    record_id: int
    kind: str
    received_at: float
    body: dict

    def as_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "kind": self.kind,
            "received_at": self.received_at,
            "body": self.body,
        }


@dataclass
class TargetAssignment:
    target_id: str
    position: Vec3


# json.dumps(body, sort_keys=True) without building an encoder per reply.
_REPLY_JSON = json.JSONEncoder(sort_keys=True)


@dataclass
class _Reply:
    status: int
    body: dict

    def encode(self) -> bytes:
        return _REPLY_JSON.encode(self.body).encode()


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

    Shared by ``/api/seed`` and ``lockon serve --targets`` (which takes a
    scenario file). A malformed entry, an ``id`` that is not a string or a
    non-finite position raises ValueError naming the entry.
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
        self._records: list[MissionRecord] = []
        self._clock = clock
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

    def _append(self, kind: str, body: dict) -> MissionRecord:
        record = MissionRecord(
            record_id=len(self._records) + 1,
            kind=kind,
            received_at=self._clock(),
            body=body,
        )
        self._records.append(record)
        return record

    def seed(self, targets: list[TargetAssignment]) -> None:
        _check_unique(targets)
        with self._lock:
            self._queue = list(targets)

    def handle_telemetry(self, body: bytes | str) -> _Reply:
        try:
            request = TelemetryRequest.decode(body)
        except DecodeError as exc:
            raise ApiError(400, f"invalid telemetry request: {exc}") from exc
        with self._lock:
            self._append("Telemetry", request.to_obj())
            if self._queue:
                head = self._queue[0]
                response = TelemetryResponse(
                    has_target=True,
                    target_id=head.target_id,
                    target_position=head.position,
                    remaining_targets=len(self._queue),
                )
            else:
                response = TelemetryResponse(
                    has_target=False,
                    target_id=None,
                    target_position=None,
                    remaining_targets=0,
                )
        return _Reply(200, response.to_obj())

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
            record = self._append("Lock", report.to_obj())
        return _Reply(201, {"record_id": record.record_id, "recorded": True})

    def handle_crash_report(self, body: bytes | str) -> _Reply:
        try:
            report = CrashReport.decode(body)
        except DecodeError as exc:
            raise ApiError(400, f"invalid crash report: {exc}") from exc
        with self._lock:
            record = self._append("Crash", report.to_obj())
        return _Reply(201, {"record_id": record.record_id, "recorded": True})

    def handle_seed(self, body: bytes | str) -> _Reply:
        try:
            targets = parse_targets(load_object(body))
            self.seed(targets)
        except (DecodeError, ValueError) as exc:
            raise ApiError(400, f"invalid seed body: {exc}") from exc
        return _Reply(200, {"seeded": len(targets)})

    def query_records(self, kind: str | None = None) -> _Reply:
        if kind is not None and kind not in RECORD_KINDS:
            raise ApiError(400, f"unknown record kind {kind!r}")
        with self._lock:
            records = [r.as_dict() for r in self._records if kind is None or r.kind == kind]
        return _Reply(200, {"records": records})

    # Introspection used by tests and the scheduler.
    def queue_length(self) -> int:
        with self._lock:
            return len(self._queue)

    def record_count(self, kind: str | None = None) -> int:
        with self._lock:
            return sum(1 for r in self._records if kind is None or r.kind == kind)


class _Handler(BaseHTTPRequestHandler):
    store: MissionStore  # set by make_http_server

    def _reply(self, reply: _Reply) -> None:
        data = reply.encode()
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        try:
            size = int(self.headers.get("Content-Length", 0))
        except ValueError:
            size = -1
        if 0 <= size <= MAX_BODY_BYTES:
            self._reply(self.store.dispatch("POST", self.path, self.rfile.read(size)))
            return
        self.close_connection = True  # the unread body would be taken for the next request
        if size < 0:
            self._reply(_Reply(400, {"error": "Content-Length must be a non-negative integer"}))
        else:
            self._reply(_Reply(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}))

    def do_GET(self) -> None:  # noqa: N802
        self._reply(self.store.dispatch("GET", self.path))

    def log_message(self, format: str, *args) -> None:
        log.debug("http %s", format % args)


def make_http_server(store: MissionStore, port: int = 0, host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """Bind a threading HTTP server over the store; port 0 picks a free one."""
    handler = type("BoundHandler", (_Handler,), {"store": store})
    return ThreadingHTTPServer((host, port), handler)


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


class LatencyHarnessError(Exception):
    """The latency harness could not complete its request batch."""


def _padded_telemetry_body(payload_bytes: int) -> bytes:
    base = {
        "uav_id": "latency-probe",
        "time": 0.0,
        "position": {"x": 0.0, "y": 0.0, "z": 0.0},
        "state": "SEARCH",
        "pad": "",
    }
    overhead = len(json.dumps(base, separators=(",", ":")).encode())
    pad = max(0, payload_bytes - overhead)
    base["pad"] = "x" * pad
    return json.dumps(base, separators=(",", ":")).encode()


def latency_harness(
    port: int,
    payload_bytes: int = 500,
    n_requests: int = 1000,
    host: str = "127.0.0.1",
) -> dict:
    """Measure telemetry round-trip latency over loopback HTTP.

    Issues n_requests POSTs with bodies padded to payload_bytes and reports
    p50/p95/mean in milliseconds. A failed request aborts the whole batch.
    """
    if n_requests <= 0:
        raise ValueError("n_requests must be > 0")
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be > 0")
    body = _padded_telemetry_body(payload_bytes)
    headers = {"Content-Type": "application/json"}
    durations_ms: list[float] = []
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        for index in range(n_requests):
            started = _time.perf_counter()
            try:
                conn.request("POST", "/api/telemetry", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                raise LatencyHarnessError(f"request {index} failed: {exc}") from exc
            if status != 200:
                raise LatencyHarnessError(f"request {index} failed with status {status}")
            durations_ms.append((_time.perf_counter() - started) * 1000.0)
    finally:
        conn.close()

    ordered = sorted(durations_ms)

    def nearest_rank(q: float) -> float:
        rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
        return ordered[rank - 1]

    return {
        "p50_ms": nearest_rank(0.50),
        "p95_ms": nearest_rank(0.95),
        "mean_ms": statistics.fmean(durations_ms),
        "count": n_requests,
        "payload_bytes": len(body),
    }
