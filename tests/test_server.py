"""Mission server store behaviour, HTTP layer, and conservation properties."""

import codecs
import http.client
import io
import json
import logging
import random
import socket
import struct
import time
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

from lockon.payloads import LockReport, TelemetryRequest, TelemetryResponse
from lockon.proxy import HttpTransport, InProcessTransport
from lockon.server import (
    MAX_BODY_BYTES,
    ApiError,
    MissionStore,
    ServerThread,
    TargetAssignment,
    read_headers,
)
from lockon.world import Vec3

from conftest import SCHEMAS, json_values, stored_records, wire_messages


def telemetry_body(uav="uav-1", t=0.0):
    return TelemetryRequest(uav_id=uav, time=t, position=Vec3(0, 0, 10), state="SEARCH").encode()


def lock_body(target_id, start=100, end=300):
    return LockReport(
        uav_id="uav-1", target_id=target_id, lock_start_tick=start, lock_end_tick=end,
        position=Vec3(1, 2, 3),
    ).encode()


def crash_body():
    return json.dumps({"uav_id": "uav-1", "time": 9.0, "position": [0, 0, -1]}).encode()


def seeded_store(n=2):
    return MissionStore(
        [TargetAssignment(f"T{i+1}", Vec3(60 + 10 * i, 0, 10)) for i in range(n)]
    )


class TestTelemetryEndpoint:
    def test_head_of_queue_assigned(self):
        store = seeded_store(2)
        reply = store.handle_telemetry(telemetry_body())
        assert reply.status == 200
        response = TelemetryResponse.decode(json.dumps(reply.body))
        assert response.has_target and response.target_id == "T1"
        assert response.remaining_targets == 2

    def test_empty_queue(self):
        store = MissionStore([])
        reply = store.handle_telemetry(telemetry_body())
        response = TelemetryResponse.decode(json.dumps(reply.body))
        assert not response.has_target and response.remaining_targets == 0

    def test_malformed_body_is_400(self):
        store = seeded_store()
        with pytest.raises(ApiError) as err:
            store.handle_telemetry(b'{"uav_id": "u", "time": 0, "state": "SEARCH"}')
        assert err.value.status == 400
        assert "position" in str(err.value)

    def test_assignment_stable_until_lock(self):
        store = seeded_store(2)
        ids = [
            TelemetryResponse.decode(json.dumps(store.handle_telemetry(telemetry_body()).body)).target_id
            for _ in range(5)
        ]
        assert ids == ["T1"] * 5
        store.handle_lock_report(lock_body("T1"))
        after = TelemetryResponse.decode(json.dumps(store.handle_telemetry(telemetry_body()).body))
        assert after.target_id == "T2"

    def test_telemetry_appends_record(self):
        store = seeded_store()
        store.handle_telemetry(telemetry_body())
        assert store.record_count("Telemetry") == 1


class TestLockEndpoint:
    def test_lock_consumes_target(self):
        store = seeded_store(2)
        reply = store.handle_lock_report(lock_body("T1"))
        assert reply.status == 201
        assert store.queue_length() == 1
        assert store.record_count("Lock") == 1

    def test_unknown_target_is_404(self):
        store = seeded_store(2)
        with pytest.raises(ApiError) as err:
            store.handle_lock_report(lock_body("T9"))
        assert err.value.status == 404
        assert store.queue_length() == 2

    def test_duplicate_lock_is_404(self):
        store = seeded_store(2)
        store.handle_lock_report(lock_body("T1"))
        with pytest.raises(ApiError) as err:
            store.handle_lock_report(lock_body("T1"))
        assert err.value.status == 404

    def test_malformed_lock_is_400(self):
        store = seeded_store()
        with pytest.raises(ApiError) as err:
            store.handle_lock_report(b"{}")
        assert err.value.status == 400


class TestCrashEndpoint:
    def test_valid_crash_recorded(self):
        store = seeded_store()
        reply = store.handle_crash_report(crash_body())
        assert reply.status == 201
        assert store.record_count("Crash") == 1

    def test_missing_time_is_400(self):
        store = seeded_store()
        with pytest.raises(ApiError) as err:
            store.handle_crash_report(json.dumps({"uav_id": "u", "position": [0, 0, 0]}).encode())
        assert err.value.status == 400
        assert "time" in str(err.value)

    def test_crash_records_have_increasing_ids(self):
        store = seeded_store()
        first = store.handle_crash_report(crash_body())
        second = store.handle_crash_report(crash_body())
        assert second.body["record_id"] == first.body["record_id"] + 1


class TestQueryRecords:
    def test_insertion_order_preserved(self):
        store = seeded_store()
        store.handle_telemetry(telemetry_body())
        store.handle_lock_report(lock_body("T1"))
        reply = store.query_records()
        kinds = [r["kind"] for r in reply.body["records"]]
        assert kinds == ["Telemetry", "Lock"]

    def test_kind_filter(self):
        store = seeded_store()
        store.handle_telemetry(telemetry_body())
        store.handle_lock_report(lock_body("T1"))
        reply = store.query_records("Lock")
        assert [r["kind"] for r in reply.body["records"]] == ["Lock"]

    def test_fresh_server_is_empty(self):
        assert MissionStore([]).query_records().body["records"] == []

    def test_unknown_kind_is_400(self):
        with pytest.raises(ApiError) as err:
            MissionStore([]).query_records("Nonsense")
        assert err.value.status == 400


class TestConservation:
    def test_randomized_request_sequences(self):
        # locks-recorded + queue-length stays equal to the seeded count, and
        # record ids remain gap-free, under arbitrary request interleavings.
        rng = random.Random(777)
        for trial in range(30):
            n = rng.randint(1, 6)
            store = seeded_store(n)
            ids = [f"T{i+1}" for i in range(n)]
            for _ in range(rng.randint(10, 60)):
                op = rng.random()
                try:
                    if op < 0.45:
                        store.handle_telemetry(telemetry_body(t=rng.random()))
                    elif op < 0.8:
                        store.handle_lock_report(lock_body(rng.choice(ids + ["T999"])))
                    else:
                        store.handle_crash_report(crash_body())
                except ApiError:
                    pass
                assert store.record_count("Lock") + store.queue_length() == n
            records = store.query_records().body["records"]
            assert [r["record_id"] for r in records] == list(range(1, len(records) + 1))


class TestSeeding:
    def test_seed_endpoint_replaces_queue(self):
        store = MissionStore([])
        reply = store.handle_seed(
            json.dumps({"targets": [{"id": "A", "position": [1, 2, 3]}]}).encode()
        )
        assert reply.status == 200 and store.queue_length() == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            MissionStore(
                [TargetAssignment("T1", Vec3(0, 0, 0)), TargetAssignment("T1", Vec3(1, 1, 1))]
            )
        store = seeded_store(1)
        with pytest.raises(ApiError) as err:
            store.handle_seed(b'{"targets": [{"id": "A", "p0": [0, 0, 0]}, {"id": "A", "p0": [1, 1, 1]}]}')
        assert err.value.status == 400 and "unique" in str(err.value)
        assert store.queue_length() == 1

    @pytest.mark.parametrize(
        "body",
        [
            b'{"targets": [{"id": "A", "position": [NaN, 0, 0]}]}',
            b'{"targets": [{"id": "A", "position": {"x": 0, "y": Infinity, "z": 0}}]}',
            b'{"targets": [{"position": [0, 0, 0]}]}',
            b'{"targets": [{"id": "A"}]}',
            b'{"targets": [{"id": {"a": 1}, "position": [0, 0, 0]}]}',
            b'{"targets": [{"id": 7, "position": [0, 0, 0]}]}',
            b'{"targets": {"id": "A"}}',
            b"[]",
            b'{"targets": [{"id": "A", "position": [0, 0, 0]}], "note": NaN}',
            b'{"targets": [{"id": "A", "position": [0, 0, 0]}], "note": [1e400]}',
        ],
    )
    def test_malformed_seed_is_400_and_keeps_the_queue(self, body):
        store = seeded_store(2)
        with pytest.raises(ApiError) as err:
            store.handle_seed(body)
        assert err.value.status == 400
        assert store.queue_length() == 2
        if b"note" in body:  # a value no field reads is refused without naming a field
            assert "targets[" not in str(err.value) and "invalid JSON" in str(err.value)
        elif b"NaN" in body or b"Infinity" in body:  # named as `serve --targets` names it
            assert "targets[0] position" in str(err.value)


class TestDispatch:
    def test_routes_by_method_and_path(self):
        store = seeded_store(1)
        assert store.dispatch("POST", "/api/telemetry", telemetry_body()).status == 200
        assert store.dispatch("POST", "/api/lock?ignored=1", lock_body("T1")).status == 201
        reply = store.dispatch("GET", "/api/records?kind=Lock")
        assert [r["kind"] for r in reply.body["records"]] == ["Lock"]
        assert len(store.dispatch("GET", "/api/records").body["records"]) == 2

    @pytest.mark.parametrize(
        "method, target",
        [
            ("GET", "/api/telemetry"),
            ("POST", "/api/records"),
            ("POST", "/api/nonsense"),
            ("GET", "//[bad/api/records"),
        ],
    )
    def test_unknown_endpoint_is_404_reply(self, method, target):
        reply = MissionStore([]).dispatch(method, target, b"{}")
        assert reply.status == 404 and "error" in json.loads(reply.encode())

    def test_api_errors_become_replies(self):
        store = seeded_store(1)
        assert store.dispatch("POST", "/api/lock", lock_body("T9")).status == 404
        assert store.dispatch("GET", "/api/records?kind=Bogus").status == 400
        reply = store.dispatch("POST", "/api/telemetry", b'{"time": "abc"}')
        assert reply.status == 400 and "uav_id" in reply.body["error"]

    def test_non_finite_numbers_are_400_and_never_stored(self):
        store = seeded_store(1)
        nan_position = b'{"uav_id": "u", "time": 0, "position": [NaN, 0, 0], "state": "SEARCH"}'
        inf_time = b'{"uav_id": "u", "time": 1e999, "position": [0, 0, 0]}'
        assert store.dispatch("POST", "/api/telemetry", nan_position).status == 400
        assert store.dispatch("POST", "/api/crash", inf_time).status == 400
        assert store.record_count() == 0

    @pytest.mark.parametrize(
        "restate",
        [
            lambda body: body.decode().encode("utf-16"),
            lambda body: codecs.BOM_UTF8 + body,
            lambda body: body[:-1] + b',"note":NaN}',
            lambda body: body[:-1] + b',"note":[1e400]}',
        ],
        ids=["utf-16", "bom", "nan-in-unknown-field", "overflow-in-unknown-field"],
    )
    @pytest.mark.parametrize("path", ["/api/telemetry", "/api/lock", "/api/crash", "/api/seed"])
    def test_non_strict_bodies_are_400_and_never_stored(self, path, restate):
        bodies = {
            "/api/telemetry": telemetry_body(),
            "/api/lock": lock_body("T1"),
            "/api/crash": crash_body(),
            "/api/seed": b'{"targets":[{"id":"A","position":[0,0,0]}]}',
        }
        store = seeded_store(1)
        assert store.dispatch("POST", path, restate(bodies[path])).status == 400
        assert store.record_count() == 0 and store.queue_length() == 1

    @pytest.mark.parametrize("body", [None, {}, 3, []], ids=["None", "dict", "int", "list"])
    @pytest.mark.parametrize("path", ["/api/telemetry", "/api/lock", "/api/crash", "/api/seed"])
    def test_a_body_neither_bytes_nor_a_message_is_400(self, path, body):
        store = seeded_store(1)
        reply = store.dispatch("POST", path, body)
        assert reply.status == 400
        assert "invalid JSON: expected bytes or str" in json.loads(reply.encode())["error"]
        assert store.record_count() == 0 and store.queue_length() == 1

    def test_reply_bytes_are_json_dumps_with_sorted_keys(self):
        store = seeded_store(2)
        store.dispatch("POST", "/api/telemetry", telemetry_body())
        for reply in (store.dispatch("GET", "/api/records"), store.dispatch("POST", "/api/x")):
            assert reply.encode() == json.dumps(reply.body, sort_keys=True).encode()


class TestHttpLayer:
    def test_busy_port_raises_the_bind_error(self):
        # server_close() on the failed bind once raised AttributeError instead.
        with ServerThread(MissionStore([])) as server:
            with pytest.raises(OSError):
                ServerThread(MissionStore([]), port=server.port)

    def test_endpoints_over_loopback(self):
        store = seeded_store(1)
        with ServerThread(store) as server:
            transport = HttpTransport(port=server.port)
            status, body = transport.post("/api/telemetry", telemetry_body())
            assert status == 200
            response = TelemetryResponse.decode(body)
            assert response.target_id == "T1"

            status, _ = transport.post("/api/lock", lock_body("T1"))
            assert status == 201
            status, _ = transport.post("/api/lock", lock_body("T1"))
            assert status == 404

            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            conn.request("GET", "/api/records?kind=Lock")
            response = conn.getresponse()
            records = json.loads(response.read())["records"]
            assert response.status == 200 and len(records) == 1
            conn.request("GET", "/api/records?kind=Bogus")
            assert conn.getresponse().status == 400
            conn.close()
            transport.close()

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-1", 400), ("9" * 5000, 400), (str(MAX_BODY_BYTES + 1), 413)],
        ids=["non-integer", "negative", "5000-digits", "oversize"],
    )
    def test_bad_content_length_gets_a_reply_before_close(self, length, status):
        with ServerThread(MissionStore([])) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(
                    f"POST /api/telemetry HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
                    .encode()
                )
                reply = b""
                while chunk := sock.recv(65536):  # the server closes after replying
                    reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert "error" in json.loads(body)

    def test_unknown_route_is_404(self):
        with ServerThread(MissionStore([])) as server:
            transport = HttpTransport(port=server.port)
            status, _ = transport.post("/api/nonsense", b"{}")
            assert status == 404
            transport.close()


def read_until_eof(sock):
    """Everything the server sends before closing; a reset raises ConnectionResetError."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def split_reply(data):
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {k.strip().lower(): v.strip() for k, _, v in (line.partition(":") for line in lines[1:])}
    return int(lines[0].split()[1]), headers, body


class TestPersistentConnections:
    def test_requests_share_one_connection(self):
        with ServerThread(seeded_store(1)) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
            try:
                socks = set()
                for i in range(20):
                    if i % 4 == 3:
                        conn.request("GET", "/api/records?kind=Lock")
                    else:
                        conn.request("POST", "/api/telemetry", body=telemetry_body(t=float(i)))
                    response = conn.getresponse()
                    assert response.status == 200 and not response.will_close
                    response.read()
                    socks.add(conn.sock)
                assert len(socks) == 1 and None not in socks
            finally:
                conn.close()

    def test_idle_connection_is_closed_while_another_client_is_served(self, monkeypatch):
        with ServerThread(seeded_store(1)) as server:
            monkeypatch.setattr(server.httpd.RequestHandlerClass, "timeout", 0.2)
            busy = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as idle:
                try:
                    started = time.monotonic()
                    sock = None
                    while time.monotonic() - started < 0.8:  # four idle timeouts
                        busy.request("POST", "/api/telemetry", body=telemetry_body())
                        response = busy.getresponse()
                        assert response.status == 200 and response.read()
                        assert busy.sock is not None and sock in (None, busy.sock)
                        sock = busy.sock
                        time.sleep(0.02)
                    assert read_until_eof(idle) == b""  # closed by the server, no reply
                finally:
                    busy.close()

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /api/records HTTP/9\r\n\r\n", 400),
            (b"POST /api/nowhere HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", 400),
            (
                b"POST /api/telemetry HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (4 * MAX_BODY_BYTES)
                + b"x" * (4 * MAX_BODY_BYTES),
                413,
            ),
            (b"POST /api/seed HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 411),
            (b"PUT /api/seed HTTP/1.1\r\nContent-Length: 65536\r\n\r\n" + b"y" * 65536, 501),
            (b"DELETE /api/records HTTP/1.1\r\n\r\n", 501),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /api/records HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n", 431),
        ],
        ids=[
            "bad-request-line", "bad-version", "signed-length", "oversize-body-sent",
            "chunked", "put-with-body", "delete", "long-uri", "too-many-headers",
        ],
    )
    def test_rejected_request_gets_json_then_a_clean_close(self, request_bytes, status):
        with ServerThread(MissionStore([])) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(request_bytes)
                reply_status, headers, body = split_reply(read_until_eof(sock))
        assert reply_status == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert "error" in json.loads(body)

    def test_head_gets_json_headers_and_no_body(self):
        with ServerThread(MissionStore([])) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(b"HEAD /api/records HTTP/1.1\r\n\r\n")
                reply_status, headers, body = split_reply(read_until_eof(sock))
        assert (reply_status, body) == (501, b"")
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"

    def test_get_body_is_read_and_ignored(self):
        # Left unread, this body would be taken for the next request and record a crash.
        smuggled = b"POST /api/crash HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(crash_body())
        store = MissionStore([])
        with ServerThread(store) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
            try:
                for body in (smuggled + crash_body(), None):
                    conn.request("GET", "/api/records", body=body)
                    response = conn.getresponse()
                    assert (response.status, response.read()) == (200, b'{"records": []}')
                    assert not response.will_close
            finally:
                conn.close()
        assert store.record_count() == 0

    def test_client_reset_is_logged_at_debug_not_printed(self, capsys, caplog):
        caplog.set_level(logging.DEBUG, logger="lockon.server")
        with ServerThread(MissionStore([])) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
            conn.request("GET", "/api/records")
            assert conn.getresponse().read() == b'{"records": []}'
            # SO_LINGER 0: closing sends a reset to the thread waiting for the next request.
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            deadline = time.monotonic() + 5.0
            while "dropped" not in caplog.text and time.monotonic() < deadline:
                time.sleep(0.01)
        assert "dropped" in caplog.text
        assert capsys.readouterr().err == ""

    def test_server_thread_exit_ends_an_idle_kept_alive_connection(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
            conn.request("GET", "/api/records")
            assert conn.getresponse().read() == b'{"records": []}'  # kept alive
            started = time.monotonic()
        try:
            assert time.monotonic() - started < 2.0
            assert not server._thread.is_alive()
            # The closed server ends the connection instead of serving it on.
            assert read_until_eof(conn.sock) == b""
            with pytest.raises((OSError, http.client.HTTPException)):
                conn.request("POST", "/api/crash", body=crash_body())
                conn.getresponse()
            assert store.record_count() == 0
        finally:
            conn.close()


POST_PATHS = ["/api/telemetry", "/api/lock", "/api/crash", "/api/seed"]
VALID_BODIES = [
    json.loads(telemetry_body()),
    json.loads(lock_body("T1")),
    json.loads(crash_body()),
    {"targets": [{"id": "T1", "position": [60, 0, 10]}]},
]


@st.composite
def request_bodies(draw):
    """Arbitrary bytes, arbitrary JSON, or a valid body with one field changed."""
    kind = draw(st.sampled_from(["bytes", "json", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(json_values)).encode()
    obj = dict(draw(st.sampled_from(VALID_BODIES)))
    obj[draw(st.sampled_from(sorted(obj) + ["x"]))] = draw(json_values)
    return json.dumps(obj).encode()


def test_every_endpoint_answers_arbitrary_bodies_with_json():
    with ServerThread(seeded_store(3)) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)

        @settings(max_examples=200, deadline=None)
        @given(st.sampled_from(POST_PATHS), request_bodies(), st.text(max_size=8))
        def check(path, body, kind):
            # On a persistent connection each reply is read before the next request.
            for method, target, data in (
                ("POST", path, body),
                ("GET", "/api/records?kind=" + quote(kind), None),
            ):
                conn.request(method, target, body=data)
                response = conn.getresponse()
                assert response.status // 100 in (2, 4)
                assert response.getheader("Content-Type") == "application/json"
                assert isinstance(json.loads(response.read(), parse_constant=pytest.fail), dict)

        try:
            check()
        finally:
            conn.close()


def test_in_process_and_http_transports_agree():
    def store():
        return MissionStore(
            [TargetAssignment(f"T{i}", Vec3(10 * i, 0, 10)) for i in range(1, 4)],
            clock=lambda: 0.0,
        )

    local = InProcessTransport(store())
    with ServerThread(store()) as server:
        remote = HttpTransport(port=server.port)

        @settings(max_examples=150, deadline=None)
        @given(st.sampled_from(POST_PATHS + ["/api/nonsense"]), request_bodies())
        def check(path, body):
            status, data = local.post(path, body)
            remote_status, remote_data = remote.post(path, body)
            assert (remote_status, json.loads(remote_data)) == (status, json.loads(data))

        try:
            check()
        finally:
            remote.close()


def store_for(message):
    """A fresh store whose queue holds T1, and the target the message names if it names one."""
    ids = ["T1"]
    target_id = getattr(message, "target_id", None)
    if type(target_id) is str and target_id != "T1":
        ids.append(target_id)
    return MissionStore([TargetAssignment(t, Vec3(10, 0, 10)) for t in ids])


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(POST_PATHS),
    st.sampled_from(SCHEMAS).flatmap(wire_messages).filter(lambda message: message is not None),
)
def test_a_posted_value_is_answered_as_its_encoding(path, message):
    """In-process the proxy posts message values; each route answers one as its bytes."""
    by_value, by_bytes = store_for(message), store_for(message)
    reply = by_value.dispatch("POST", path, message)
    expected = by_bytes.dispatch("POST", path, message.encode())
    assert (reply.status, reply.encode()) == (expected.status, expected.encode())
    assert stored_records(by_value) == stored_records(by_bytes)
    assert by_value.queue_length() == by_bytes.queue_length()


def parse_replies(data):
    """Every reply in ``data`` as (status, headers, body); fails on bytes that are not replies."""
    replies = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated reply head {data[:200]!r}"
        status, headers, _ = split_reply(head + sep)
        assert head.startswith(b"HTTP/1.1 %d " % status)
        size = 0 if status == 100 else int(headers["content-length"])
        body, data = rest[:size], rest[size:]
        assert len(body) == size
        replies.append((status, headers, body))
    return replies


def exchange(port, data):
    """Send ``data`` on a new connection, end the input, and read every reply until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        return parse_replies(read_until_eof(sock))


def read_reply(sock, buffer=b""):
    """One reply with a Content-Length body from ``sock``, and the bytes read past it."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed inside a reply head {buffer!r}"
        buffer += chunk
    status, headers, rest = split_reply(buffer)
    size = 0 if status == 100 else int(headers["content-length"])
    while len(rest) < size:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a reply body"
        rest += chunk
    return (status, headers, rest[:size]), rest[size:]


def crash_request(head=b"POST /api/crash HTTP/1.1", framing=b"Content-Length: %d"):
    body = crash_body()
    return head + b"\r\n" + framing % len(body) + b"\r\n\r\n" + body


class TestRequestHeads:
    """Request-line and header-block behaviours of the stdlib's reader that the server keeps."""

    def test_expect_100_continue_gets_100_then_the_reply(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                head, _, body = crash_request(
                    framing=b"Expect: 100-continue\r\nContent-Length: %d"
                ).partition(b"\r\n\r\n")
                sock.sendall(head + b"\r\n\r\n")
                interim, rest = read_reply(sock)
                assert interim[0] == 100 and rest == b""
                sock.sendall(body)
                (status, headers, data), rest = read_reply(sock)
        assert (status, rest) == (201, b"") and "connection" not in headers
        assert json.loads(data) == {"record_id": 1, "recorded": True}
        assert store.record_count("Crash") == 1

    @pytest.mark.parametrize(
        "head",
        [b"GET /api/records HTTP/1.0", b"GET /api/records HTTP/1.1\r\nConnection: close"],
        ids=["http-1.0", "http-1.1-connection-close"],
    )
    def test_closing_requests_get_connection_close_then_eof(self, head):
        with ServerThread(MissionStore([])) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(head + b"\r\n\r\n")  # the input stays open: the server closes
                [(status, headers, body)] = parse_replies(read_until_eof(sock))
        assert (status, headers["connection"], body) == (200, "close", b'{"records": []}')

    def test_http_1_0_with_keep_alive_stays_open(self):
        with ServerThread(MissionStore([])) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                rest = b""
                for _ in range(2):
                    sock.sendall(b"GET /api/records HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                    (status, headers, body), rest = read_reply(sock, rest)
                    assert (status, body) == (200, b'{"records": []}')
                    assert "connection" not in headers

    def test_double_slash_path_is_served_as_single_slash(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            replies = exchange(
                server.port,
                crash_request(head=b"POST //api/crash HTTP/1.1")
                + b"GET ///api/records?kind=Crash HTTP/1.1\r\n\r\n",
            )
        assert [status for status, _, _ in replies] == [201, 200]
        assert [r["kind"] for r in json.loads(replies[1][2])["records"]] == ["Crash"]

    def test_header_names_match_in_any_case(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            [(status, _, _)] = exchange(server.port, crash_request(framing=b"content-LENGTH: %d"))
            assert status == 201 and store.record_count() == 1
            [(status, headers, body)] = exchange(
                server.port,
                b"POST /api/crash HTTP/1.1\r\nTRANSFER-ENCODING: chunked\r\n\r\n0\r\n\r\n",
            )
        assert (status, headers["connection"]) == (411, "close")
        assert "error" in json.loads(body) and store.record_count() == 1

    def test_lines_ending_in_lf_alone_are_accepted(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            request = crash_request(framing=b"Host: x\nContent-Length: %d")
            head, _, body = request.partition(b"\r\n\r\n")
            replies = exchange(server.port, head.replace(b"\r\n", b"\n") + b"\n\n" + body)
        assert [status for status, _, _ in replies] == [201]
        assert store.record_count("Crash") == 1

    @pytest.mark.parametrize(
        "fields, status",
        [
            ([b"X: y"] * 99, 200),
            ([b"X: y"] * 100, 431),
            ([b"X: " + b"a" * (65536 - 5)], 200),  # 65536 bytes with its CRLF
            ([b"X: " + b"a" * (65536 - 4)], 431),
        ],
        ids=["99-fields", "100-fields", "65536-byte-line", "65537-byte-line"],
    )
    def test_header_block_limits(self, fields, status):
        with ServerThread(MissionStore([])) as server:
            request = b"GET /api/records HTTP/1.1\r\n" + b"".join(f + b"\r\n" for f in fields)
            [(reply_status, headers, body)] = exchange(server.port, request + b"\r\n")
        assert reply_status == status
        assert headers.get("connection") == (None if status == 200 else "close")
        assert isinstance(json.loads(body), dict)


SMUGGLED = crash_request()


class TestHeaderLinesThatFrameBodiesDifferently:
    @pytest.mark.parametrize(
        "line",
        [
            b"Content-Length : %d",
            b"Content-Length %d",
            b"Content-Length: 0\r\nContent-Length: %d",
            b": 5",
            b"Content-Length\t: %d",
            b" Content-Length: %d",
            b"\tfolded",
            b"X-\x01: 1\r\nContent-Length: %d",
            b"X-\x7f: 1",
            b"X-\xc3\xa9: 1",
            b"X: a\rContent-Length: %d",
            b"X: a\r",
            b"Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked",
            b"From x",
        ],
        ids=[
            "blank-before-colon", "no-colon", "repeated-length", "empty-name", "tab-before-colon",
            "leading-blank", "obs-fold", "control-byte-in-name", "del-in-name", "non-ascii-name",
            "bare-cr", "cr-before-crlf", "repeated-te", "envelope-line",
        ],
    )
    def test_a_body_never_runs_as_a_second_request(self, line):
        # The stdlib's parser ended the header block at the first line that was
        # not a field, split lines at a bare CR and kept the first of repeated
        # fields, so with the first three lines the body ran as a POST.
        store = MissionStore([])
        with ServerThread(store) as server:
            head = b"GET /api/records HTTP/1.1\r\nX-Before: 1\r\n" + line.replace(b"%d", b"%d" % len(SMUGGLED))
            [(status, headers, body)] = exchange(server.port, head + b"\r\n\r\n" + SMUGGLED)
        assert (status, headers["connection"]) == (400, "close")
        assert "error" in json.loads(body)
        assert store.record_count() == 0

    def test_body_ending_short_of_content_length_is_400_and_not_stored(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            request = b"POST /api/crash HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (len(crash_body()) + 5)
            [(status, headers, body)] = exchange(server.port, request + crash_body())
        assert (status, headers["connection"]) == (400, "close")
        assert "error" in json.loads(body)
        assert store.record_count() == 0

    def test_repeated_other_fields_keep_the_first_value(self):
        with ServerThread(MissionStore([])) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                sock.sendall(b"GET /api/records HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n")
                [(status, headers, _)] = parse_replies(read_until_eof(sock))
        assert (status, headers["connection"]) == (200, "close")


def test_date_header_is_formatted_once_a_second(monkeypatch):
    import email.utils

    import lockon.server as server_module

    formatdate, calls = email.utils.formatdate, []
    monkeypatch.setattr(server_module, "_date", (-1, ""))
    monkeypatch.setattr(email.utils, "formatdate", lambda t, **kw: calls.append(t) or formatdate(t, **kw))
    handler = server_module._Handler.__new__(server_module._Handler)
    for now in (0.0, 0.999, 951782400.5, 951782400.9, 4102444799.0, 1e9):
        monkeypatch.setattr(server_module._time, "time", lambda now=now: now)
        assert handler.date_time_string() == formatdate(int(now), usegmt=True)
    assert calls == [0, 951782400, 4102444799, 1000000000]


def test_records_by_kind_match_a_filter_over_all_records():
    rng = random.Random(8)
    store = seeded_store(40)
    for i in range(300):
        op = rng.random()
        if op < 0.7:
            store.handle_telemetry(telemetry_body(t=float(i)))
        elif op < 0.85:
            try:
                store.handle_lock_report(lock_body(f"T{rng.randint(1, 45)}"))
            except ApiError:
                pass
        else:
            store.handle_crash_report(crash_body())
    everything = store.query_records().body["records"]
    for kind in ("Telemetry", "Lock", "Crash"):
        by_kind = store.query_records(kind).body["records"]
        assert by_kind == [r for r in everything if r["kind"] == kind] != []
        assert store.record_count(kind) == len(by_kind)
    assert store.record_count() == len(everything)
    assert store.record_count("Bogus") == 0


# Pieces of drawn header lines: the bytes that end, split or fold a line in
# one reader or another, and a few of the field lines that frame a body.
LINE_BYTES = [b":", b" ", b"\t", b"\r", b"\x00", b"\xc3\xa9", b"\xff", b"a", b"X", b"-", b"0", b"5"]
FRAMING_LINES = [
    b"Content-Length: %d", b"content-length:%d", b"Content-Length: %d ", b"CONTENT-LENGTH:\t%d",
    b"Content-Length : %d", b"Content-Length %d", b"Content-Length: 7", b"Transfer-Encoding: chunked",
    b"Connection: close", b"Connection: keep-alive", b"Expect: 100-continue", b"Host: x", b" folded",
    b"X-\xc3\xa9: \xc3\xa9\x00",
]
CRASH_TARGETS = [b"/api/crash", b"//api/crash", b"/api/crash?x=1"]


def sometimes(draw, strategy, otherwise):
    """``strategy``'s value in about one draw in four, else ``otherwise``."""
    return draw(strategy) if draw(st.integers(0, 3)) == 3 else otherwise


@st.composite
def request_heads(draw):
    """A request line from valid and invalid tokens, and up to 107 header lines (100 get 431).

    Each part is valid more often than not, so that some heads frame a POST.
    """
    method = sometimes(draw, st.sampled_from([b"GET", b"PUT", b"post", b"P\x00ST", b""]), b"POST")
    target = draw(st.sampled_from(CRASH_TARGETS)) + sometimes(draw, st.sampled_from([b"?kind=", b"x"]), b"")
    version = sometimes(
        draw, st.sampled_from([b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1", b"http/1.1", b"HTTP/1.1 x", b""]), b"HTTP/1.1"
    )
    lines = draw(st.lists(st.sampled_from(FRAMING_LINES), max_size=3))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FRAMING_LINES[:4])))
    random_line = st.lists(st.sampled_from(LINE_BYTES), min_size=1, max_size=12).map(b"".join)
    if line := sometimes(draw, random_line, None):
        lines.insert(draw(st.integers(0, len(lines))), line)
    filler = sometimes(draw, st.sampled_from([90, 97, 98, 99, 100, 102]), 0)
    lines[draw(st.integers(0, len(lines))):0] = [b"X-Filler: y"] * filler
    return b" ".join(t for t in (method, target, version) if t), lines


def is_field_line(line):
    name, colon, value = line.partition(b":")
    return colon == b":" and name != b"" and all(0x21 <= c <= 0x7E for c in name) and b"\r" not in value


def frames_a_crash(request_line, lines, body):
    """Whether a well-framed POST to /api/crash carries ``body``."""
    method, _, rest = request_line.partition(b" ")
    target, _, version = rest.partition(b" ")
    path = target.partition(b"?")[0]
    if method != b"POST" or path.lstrip(b"/") != b"api/crash" or version not in (b"HTTP/1.1", b"HTTP/1.0"):
        return False
    if len(lines) > 99 or not all(is_field_line(line) for line in lines):
        return False
    fields = [line.partition(b":") for line in lines]
    lengths = [value.lstrip(b" \t") for name, _, value in fields if name.lower() == b"content-length"]
    chunked = any(name.lower() == b"transfer-encoding" for name, _, _ in fields)
    return lengths == [b"%d" % len(body)] and not chunked


def test_arbitrary_request_heads_get_json_replies_or_a_clean_close():
    store = MissionStore([])
    body = crash_body()
    with ServerThread(store) as server:

        @settings(max_examples=300, deadline=None)
        @given(request_heads())
        def check(head):
            request_line, lines = head
            lines = [line.replace(b"%d", b"%d" % len(body)) for line in lines]
            before = store.record_count()
            request = b"\r\n".join([request_line, *lines, b"", b""]) + body
            replies = exchange(server.port, request)
            for status, headers, data in replies:
                if status != 100:
                    assert headers["content-type"] == "application/json"
                    assert isinstance(json.loads(data, parse_constant=pytest.fail), dict)
            stored = frames_a_crash(request_line, lines, body)
            assert store.record_count() - before == stored
            assert (201 in [status for status, _, _ in replies]) == stored
            [(status, _, data)] = exchange(server.port, b"GET /api/records?kind=Lock HTTP/1.1\r\n\r\n")
            assert (status, data) == (200, b'{"records": []}')

        check()


@st.composite
def well_formed_header_blocks(draw):
    """Field lines with token names, values without CR or LF, and one framing field of each kind at most."""
    names = st.sampled_from([
        b"Content-Length", b"content-length", b"CONTENT-LENGTH", b"Transfer-Encoding",
        b"transfer-encoding", b"Connection", b"connection", b"Expect", b"EXPECT", b"Host",
    ]) | st.from_regex(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]{1,12}", fullmatch=True)
    values = st.lists(st.integers(0, 255).filter(lambda c: c not in b"\r\n"), max_size=16).map(bytes)
    values |= st.sampled_from([b"5", b" 5", b"5\t ", b"chunked", b"close", b"Keep-Alive", b"100-Continue"])
    block, framing = b"", set()
    for name, value in draw(st.lists(st.tuples(names, values), max_size=99)):
        if name.lower() in (b"content-length", b"transfer-encoding"):
            if name.lower() in framing:
                continue
            framing.add(name.lower())
        block += name + b":" + draw(st.sampled_from([b"", b" ", b"\t "])) + value
        block += draw(st.sampled_from([b"\r\n", b"\n"]))
    return block + draw(st.sampled_from([b"\r\n", b"\n"]))


@settings(max_examples=300, deadline=None)
@given(well_formed_header_blocks())
def test_read_headers_agrees_with_the_stdlib_on_well_formed_blocks(block):
    ours, theirs = io.BytesIO(block + b"body"), io.BytesIO(block + b"body")
    headers = read_headers(ours)
    stdlib = http.client.parse_headers(theirs)
    for name in ("Content-Length", "Transfer-Encoding", "Connection", "Expect"):
        assert headers.get(name.lower()) == stdlib.get(name)
    assert headers == {name.lower(): stdlib.get(name) for name in stdlib.keys()}
    assert ours.read() == theirs.read() == b"body"
