"""Mission-server replies: the telemetry reply kept per queue state, and reply heads byte for byte."""

import http.client
import io
import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler

import pytest

from lockon.server import MissionStore, ServerThread, TargetAssignment, protocol_version
from lockon.world import Vec3

from test_server import crash_body, exchange, lock_body, read_until_eof, telemetry_body


def queue(n):
    return [TargetAssignment(f"T{i}", Vec3(10.0 * i, -2.5 * i, 10.0)) for i in range(1, n + 1)]


def assignment(store):
    body = json.loads(store.handle_telemetry(telemetry_body()).encode())
    return body["target_id"], body["remaining_targets"]


class TestTelemetryReplyPerQueueState:
    def test_an_unchanged_queue_shares_one_reply(self):
        store = MissionStore(queue(2))
        first = store.handle_telemetry(telemetry_body(t=1.0))
        assert store.handle_telemetry(telemetry_body(t=2.0)) is first
        assert store.dispatch("POST", "/api/telemetry", telemetry_body(t=3.0)) is first

    def test_a_lock_report_changes_the_next_reply(self):
        store = MissionStore(queue(3))
        assert assignment(store) == ("T1", 3)
        store.handle_lock_report(lock_body("T1"))
        assert assignment(store) == ("T2", 2)
        store.handle_lock_report(lock_body("T3"))  # not the head: only the count changes
        assert assignment(store) == ("T2", 1)
        store.handle_lock_report(lock_body("T2"))
        reply = store.handle_telemetry(telemetry_body())
        assert reply.body == {
            "has_target": False, "target_id": None, "target_position": None, "remaining_targets": 0,
        }

    def test_a_seed_changes_the_next_reply(self):
        store = MissionStore(queue(3))
        assert assignment(store) == ("T1", 3)
        store.seed([TargetAssignment("S1", Vec3(1, 2, 3))])
        assert assignment(store) == ("S1", 1)
        seed = {"targets": [{"id": "R1", "position": [4, 5, 6]}, {"id": "R2", "position": [7, 8, 9]}]}
        assert store.dispatch("POST", "/api/seed", json.dumps(seed).encode()).status == 200
        reply = store.handle_telemetry(telemetry_body())
        assert reply.body["target_id"] == "R1" and reply.body["remaining_targets"] == 2
        assert reply.body["target_position"] == {"x": 4, "y": 5, "z": 6}
        store.seed([])
        assert assignment(store) == (None, 0)

    def test_a_refused_lock_or_seed_keeps_the_reply(self):
        store = MissionStore(queue(2))
        first = store.handle_telemetry(telemetry_body())
        assert store.dispatch("POST", "/api/lock", lock_body("T9")).status == 404
        duplicate = json.dumps({"targets": [{"id": "A", "position": [0, 0, 0]}] * 2}).encode()
        assert store.dispatch("POST", "/api/seed", duplicate).status == 400
        assert store.handle_telemetry(telemetry_body()) is first

    def test_every_reply_is_json_dumps_with_sorted_keys(self):
        store = MissionStore(queue(4), clock=lambda: 2.5)
        requests = [
            ("POST", "/api/telemetry", telemetry_body()),
            ("POST", "/api/lock", lock_body("T2")),
            ("POST", "/api/telemetry", telemetry_body(t=1.0)),
            ("POST", "/api/lock", lock_body("T2")),
            ("POST", "/api/crash", crash_body()),
            ("POST", "/api/telemetry", b"{}"),
            ("POST", "/api/seed", b'{"targets": [{"id": "Z", "p0": [1.5, 2, 3]}]}'),
            ("POST", "/api/telemetry", telemetry_body(t=2.0)),
            ("GET", "/api/records?kind=Lock", b""),
            ("GET", "/api/records", b""),
            ("GET", "/nowhere", b""),
        ]
        for method, target, body in requests:
            reply = store.dispatch(method, target, body)
            assert reply.encode() == json.dumps(reply.body, sort_keys=True).encode()

    def test_telemetry_records_count_one_per_post(self):
        store = MissionStore(queue(1))
        times = [0.5 * i for i in range(25)]
        for t in times:
            store.handle_telemetry(telemetry_body(t=t))
        records = store.query_records("Telemetry").body["records"]
        assert [r["body"]["time"] for r in records] == times
        assert [r["record_id"] for r in records] == list(range(1, 26))


def test_concurrent_posts_over_http_only_see_replies_of_some_queue_state():
    """Four threads post telemetry while two lock the queue from both ends.

    The queue is then always ``targets[front:len - back]``, so every reply
    must be the bytes of one such state, no thread may see the count rise,
    and a locker's next reply counts its own lock.
    """
    targets = queue(12)
    n = len(targets)
    request = telemetry_body()
    valid = {
        MissionStore(targets[front : n - back]).handle_telemetry(request).encode()
        for front in range(n + 1)
        for back in range(n - front + 1)
    }
    store = MissionStore(targets)
    failures, posts = [], []
    lockers_done = threading.Event()

    def telemetry(conn):
        conn.request("POST", "/api/telemetry", body=request)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200 or data not in valid:
            raise AssertionError(f"reply of no queue state: {response.status} {data!r}")
        return json.loads(data)["remaining_targets"]

    def client(lock_ids):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        sent, seen = 0, n
        try:
            for target_id in lock_ids:
                conn.request("POST", "/api/lock", body=lock_body(target_id))
                response = conn.getresponse()
                response.read()
                if response.status != 201:
                    raise AssertionError(f"lock of {target_id} got {response.status}")
                seen -= 1  # this lock came after the last reply this thread read
                remaining = telemetry(conn)
                sent += 1
                if remaining > seen:
                    raise AssertionError(f"remaining_targets rose from {seen} to {remaining}")
                seen = remaining
            while not lock_ids and (not lockers_done.is_set() or sent < 100):
                remaining = telemetry(conn)
                sent += 1
                if remaining > seen:
                    raise AssertionError(f"remaining_targets rose from {seen} to {remaining}")
                seen = remaining
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            posts.append(sent)
            conn.close()

    front = [t.target_id for t in targets[: n // 2]]
    back = [t.target_id for t in reversed(targets[n // 2 :])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServerThread(store) as server:
            posters = [threading.Thread(target=client, args=([],)) for _ in range(4)]
            lockers = [threading.Thread(target=client, args=(ids,)) for ids in (front, back)]
            for thread in posters + lockers:
                thread.start()
            for thread in lockers:
                thread.join(timeout=30)
            lockers_done.set()
            for thread in posters:
                thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in posters + lockers)
    assert failures == []
    assert store.queue_length() == 0
    assert store.record_count("Lock") == n
    assert store.record_count("Telemetry") == sum(posts) >= 4 * 100 + n


# Raw requests and the exact reply each gets, apart from the Date value.
SERVER = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
TELEMETRY = telemetry_body()
CRASH = crash_body()


def post(path, body):
    return b"POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (path, len(body), body)


REPLY_CASES = {
    "200": (
        post(b"/api/telemetry", TELEMETRY),
        "200 OK", False,
        b'{"has_target": true, "remaining_targets": 1, "target_id": "T1", '
        b'"target_position": {"x": 60, "y": 0, "z": 10}}',
    ),
    "201": (post(b"/api/crash", CRASH), "201 Created", False, b'{"record_id": 2, "recorded": true}'),
    "400": (
        post(b"/api/telemetry", b"{}"),
        "400 Bad Request", False,
        b'{"error": "invalid telemetry request: missing required field \'uav_id\'"}',
    ),
    "400-content-length": (
        b"POST /api/crash HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        "400 Bad Request", True,
        b'{"error": "Content-Length must be a non-negative integer"}',
    ),
    "404": (
        b"GET /nowhere HTTP/1.1\r\n\r\n",
        "404 Not Found", False, b'{"error": "no such endpoint GET /nowhere"}',
    ),
    "411": (
        b"POST /api/crash HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        "411 Length Required", True,
        b'{"error": "the body needs a Content-Length; Transfer-Encoding is not supported"}',
    ),
    "413": (
        b"POST /api/crash HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
        "413 Request Entity Too Large", True, b'{"error": "body exceeds 1048576 bytes"}',
    ),
    "431": (
        b"GET /api/records HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n",
        "431 Request Header Fields Too Large", True, b'{"error": "Too many headers"}',
    ),
    "505": (
        b"GET /api/records HTTP/2.0\r\n\r\n",
        "505 HTTP Version Not Supported", True, b'{"error": "Invalid HTTP version (2.0)"}',
    ),
    "200-connection-close": (
        b"GET /api/records?kind=Lock HTTP/1.1\r\nConnection: close\r\n\r\n",
        "200 OK", True, b'{"records": []}',
    ),
}


def test_reply_heads_byte_for_byte():
    """Every case in turn on one server, so that a head kept for one status serves no other."""
    store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))], clock=lambda: 1.0)
    with ServerThread(store) as server:
        for case, (request, status, closes, body) in REPLY_CASES.items():
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
                data = read_until_eof(sock)
            date = rb"\r\nDate: [A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT\r\n"
            reply, dates = re.subn(date, b"\r\n", data)
            expected = (
                f"HTTP/1.1 {status}\r\nServer: {SERVER}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                + ("Connection: close\r\n" if closes else "")
                + "\r\n"
            ).encode("latin-1") + body
            assert (case, dates, reply) == (case, 1, expected)


class _StdlibRequestLine(BaseHTTPRequestHandler):
    """The stdlib's own parse_request over one request line, recording its answer."""

    protocol_version = "HTTP/1.1"

    def __init__(self, line: bytes) -> None:  # no socket: only parse_request runs
        self.raw_requestline = line + b"\r\n"
        self.rfile = io.BytesIO(b"\r\n")
        self.error = None

    def send_error(self, code, message=None, explain=None):
        self.error = (code, message)


# Version words the stdlib rejects with 400 (as the server reads them, in latin-1).
BAD_VERSIONS = [
    "HTTP/1.x", "HTTP/\u00b2.1", "http/1.1", "HTTP/1.1.1", "HTTP/12345678901.1", "HTTP/1",
    "HTTP/.1", "HTTP/1.", "HTTP/-1.1", "HTTP/+1.1", "HTTPS/1.1", "HTTP/1.1a", "HTTP/1_0.1",
    "HTTP/1,1", "HTTP\\1.1", "HTTP/\u00bd.1", "HTTP/0x1.1", "FTP/1.1", "HTTP/", "HTTP/1..1",
]
GOOD_VERSIONS = [
    "HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/2.0", "HTTP/3.7", "HTTP/01.1", "HTTP/1.10",
    "HTTP/0000000001.1", "HTTP/9999999999.9999999999",
]


@pytest.mark.parametrize("word", BAD_VERSIONS + GOOD_VERSIONS)
def test_protocol_version_agrees_with_the_stdlib(word):
    stdlib = _StdlibRequestLine(f"GET /api/records {word}".encode("latin-1"))
    accepted = stdlib.parse_request()
    for _ in range(2):  # the second answer may come from the memo
        version = protocol_version(word)
        if version is None:
            assert stdlib.error == (400, f"Bad request version ({word!r})")
        elif version >= (2, 0):
            assert stdlib.error == (505, f"Invalid HTTP version ({word[5:]})")
        else:
            assert accepted and stdlib.close_connection == (version < (1, 1))
    assert (version is None) == (word in BAD_VERSIONS)


def test_distinct_bad_version_words_each_get_their_own_400():
    assert len(set(BAD_VERSIONS)) == 20
    with ServerThread(MissionStore([])) as server:
        for word in BAD_VERSIONS + BAD_VERSIONS[:3]:
            request = f"GET /api/records {word}\r\n\r\n".encode("latin-1")
            [(status, headers, body)] = exchange(server.port, request)
            assert (status, headers["connection"]) == (400, "close")
            assert json.loads(body) == {"error": f"Bad request version ({word!r})"}
            good = b"GET /api/records HTTP/1.1\r\nConnection: close\r\n\r\n"
            assert exchange(server.port, good)[0][0] == 200


def test_close_by_version_is_unchanged():
    with ServerThread(MissionStore([])) as server:
        for word, closes in [
            ("HTTP/1.0", True), ("HTTP/1.1", False), ("HTTP/1.10", False), ("HTTP/01.0", True),
        ]:
            [(status, headers, _)] = exchange(server.port, f"GET /api/records {word}\r\n\r\n".encode())
            assert status == 200 and headers.get("connection") == ("close" if closes else None)
