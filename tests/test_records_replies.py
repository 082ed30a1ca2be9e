"""Records replies: the store keeps one per kind, keyed by its record count.

Records are append-only, so a kept reply may serve a read only while no
record of its kind has been added since it was built. Each test here reads
records after writes and compares the bytes with a reply built afresh.
"""

import http.client
import itertools
import json
import sys
import threading

from hypothesis import given, settings, strategies as st

from lockon.payloads import CrashReport, LockReport, TelemetryRequest
from lockon.server import RECORD_KINDS, MissionStore, ServerThread, TargetAssignment
from lockon.world import Vec3

from test_server import crash_body, lock_body, telemetry_body

CLOCK_STEP = 0.25  # the test clock: record i (from 1) is received at i * CLOCK_STEP
TARGET_IDS = ["T1", "T2", "T3", "T4"]
KINDS = [None, *RECORD_KINDS, "Bogus"]
# The schema that decodes each recording endpoint's body, and the kind it records.
RECORDING = {
    "/api/telemetry": ("Telemetry", TelemetryRequest),
    "/api/lock": ("Lock", LockReport),
    "/api/crash": ("Crash", CrashReport),
}


def clocked_store(ids=TARGET_IDS):
    ticks = itertools.count(1)
    targets = [TargetAssignment(i, Vec3(10.0, 0.0, 10.0)) for i in ids]
    return MissionStore(targets, clock=lambda: next(ticks) * CLOCK_STEP)


def records_target(kind):
    return "/api/records" if kind is None else f"/api/records?kind={kind}"


def fresh_reply(records, kind):
    """The bytes of a records reply built now from ``records``, a list of ``(kind, body)``."""
    if kind is not None and kind not in RECORD_KINDS:
        return json.dumps({"error": f"unknown record kind {kind!r}"}).encode()
    body = {
        "records": [
            {"record_id": i, "kind": k, "received_at": i * CLOCK_STEP, "body": b}
            for i, (k, b) in enumerate(records, start=1)
            if kind is None or k == kind
        ]
    }
    return json.dumps(body, sort_keys=True).encode()


def read(store, kind):
    return store.dispatch("GET", records_target(kind))


def post(store, path, body):
    """Post ``body``; the ``(kind, body)`` it recorded, or None."""
    reply = store.dispatch("POST", path, body)
    if path in RECORDING and reply.status in (200, 201):
        kind, schema = RECORDING[path]
        return kind, schema.decode(body).to_obj()
    return None


MALFORMED = st.sampled_from([
    b"", b"{}", b"not json", b"[1, 2]",
    b'{"uav_id": "u", "time": NaN, "position": [0, 0, 0], "state": "SEARCH"}',
])
OPERATIONS = st.one_of(
    st.tuples(
        st.just("/api/telemetry"),
        st.one_of(st.floats(0, 100).map(lambda t: telemetry_body(t=t)), MALFORMED),
    ),
    st.tuples(st.just("/api/lock"), st.one_of(st.sampled_from(TARGET_IDS + ["T9"]).map(lock_body), MALFORMED)),
    st.tuples(st.just("/api/crash"), st.one_of(st.just(crash_body()), MALFORMED)),
    st.tuples(
        st.just("/api/seed"),
        st.lists(st.sampled_from(TARGET_IDS), max_size=4).map(
            lambda ids: json.dumps({"targets": [{"id": i, "position": [1, 2, 3]} for i in ids]}).encode()
        ),
    ),
    st.tuples(st.just("GET"), st.sampled_from(KINDS)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(OPERATIONS, max_size=40))
def test_every_records_read_equals_a_reply_built_afresh(operations):
    store = clocked_store()
    records = []
    for what, arg in operations:
        if what == "GET":
            reply = read(store, arg)
            assert reply.status == (400 if arg == "Bogus" else 200)
            assert reply.encode() == fresh_reply(records, arg)
        elif (record := post(store, what, arg)) is not None:
            records.append(record)
    for kind in KINDS:
        assert read(store, kind).encode() == fresh_reply(records, kind)


def test_a_lock_between_two_reads_is_in_the_second():
    store = clocked_store()
    first = json.loads(read(store, "Lock").encode())["records"]
    assert store.dispatch("POST", "/api/lock", lock_body("T2")).status == 201
    second = json.loads(read(store, "Lock").encode())["records"]
    assert (first, [r["body"]["target_id"] for r in second]) == ([], ["T2"])


def test_reads_share_one_reply_until_a_record_of_their_kind_is_added():
    store = clocked_store()
    store.handle_lock_report(lock_body("T1"))
    locks, everything = read(store, "Lock"), read(store, None)
    assert read(store, "Lock") is locks and read(store, None) is everything
    store.handle_telemetry(telemetry_body())
    assert read(store, "Lock") is locks  # no new lock record
    assert read(store, None) is not everything
    store.seed([TargetAssignment("T1", Vec3(1.0, 2.0, 3.0))])  # a seed adds no record
    assert read(store, "Lock") is locks


def test_concurrent_writes_and_reads_over_http_see_ordered_growing_records():
    """Two threads post telemetry and two lock the queue while two others read records.

    Every reply must hold records in increasing id order and of the kind
    asked for, no thread may see a record vanish from a later read, and a
    locker's next read of the lock records holds its own lock. The last reads
    must equal replies built from the store's records once all threads end.
    """
    ids = [f"T{i}" for i in range(1, 31)]
    store = clocked_store(ids)
    failures = []
    writers_done = threading.Event()

    def exchange(conn, method, target, body=None):
        conn.request(method, target, body=body)
        response = conn.getresponse()
        return response.status, response.read()

    def checked_ids(data, kind, seen):
        records = json.loads(data)["records"]
        got = [r["record_id"] for r in records]
        if any(a >= b for a, b in zip(got, got[1:])):
            raise AssertionError(f"record ids out of order: {got}")
        if kind is not None and {r["kind"] for r in records} - {kind}:
            raise AssertionError(f"a {kind} read holds {sorted({r['kind'] for r in records})}")
        if kind is None and got != list(range(1, len(got) + 1)):
            raise AssertionError(f"record ids with a gap: {got}")
        if got[: len(seen)] != seen:
            raise AssertionError(f"a later read lost records: {seen} then {got}")
        return got

    def client(work):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            work(conn)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            conn.close()

    def poster(uav):
        def work(conn):
            for i in range(120):
                status, data = exchange(conn, "POST", "/api/telemetry", telemetry_body(uav, float(i)))
                if status != 200:
                    raise AssertionError(f"telemetry got {status}: {data!r}")
        return work

    def locker(targets):
        def work(conn):
            seen = []
            for target_id in targets:
                status, data = exchange(conn, "POST", "/api/lock", lock_body(target_id))
                if status != 201:
                    raise AssertionError(f"lock of {target_id} got {status}: {data!r}")
                record_id = json.loads(data)["record_id"]
                status, data = exchange(conn, "GET", "/api/records?kind=Lock")
                seen = checked_ids(data, "Lock", seen)
                if status != 200 or record_id not in seen:
                    raise AssertionError(f"the read after lock {record_id} holds {seen}")
        return work

    last = {}

    def reader(kind):
        def work(conn):
            seen, reads, done = [], 0, False
            while not (done and reads >= 20):  # the last read starts after every write ended
                done = writers_done.is_set()
                status, data = exchange(conn, "GET", records_target(kind))
                if status != 200:
                    raise AssertionError(f"records read got {status}: {data!r}")
                seen = checked_ids(data, kind, seen)
                reads += 1
            last[kind] = data
        return work

    writers = [poster("uav-a"), poster("uav-b"), locker(ids[::2]), locker(ids[1::2])]
    writer_threads = [threading.Thread(target=client, args=(w,)) for w in writers]
    reader_threads = [threading.Thread(target=client, args=(reader(k),)) for k in ("Lock", None)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServerThread(store) as server:
            for thread in writer_threads + reader_threads:
                thread.start()
            for thread in writer_threads:
                thread.join(timeout=60)
            writers_done.set()
            for thread in reader_threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writer_threads + reader_threads)
    assert failures == []
    assert (store.record_count("Telemetry"), store.record_count("Lock")) == (240, len(ids))
    # The store's own record list, read once every thread has ended, is the oracle.
    records = [(r["kind"], r["body"]) for r in store._records]
    assert last == {kind: fresh_reply(records, kind) for kind in ("Lock", None)}
