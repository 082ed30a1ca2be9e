"""Proxy forwarding, retries, degraded replies that publish nothing, and /land disarm."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from lockon.bus import MessageBus
from lockon.payloads import (
    CrashReport,
    DecodeError,
    LockReport,
    TelemetryRequest,
    TelemetryResponse,
)
from lockon.proxy import (
    LOCK_RETRIES,
    TELEMETRY_RETRIES,
    HttpTransport,
    InProcessTransport,
    ProxyNode,
    TransportError,
)
from lockon.server import MissionStore, ServerThread, TargetAssignment
from lockon.world import Vec3


def request(t=0.0):
    return TelemetryRequest(uav_id="uav-1", time=t, position=Vec3(0, 0, 10), state="SEARCH")


def report(target_id="T1"):
    return LockReport(
        uav_id="uav-1", target_id=target_id, lock_start_tick=0, lock_end_tick=200,
        position=Vec3(0, 0, 10),
    )


class FlakyTransport:
    """Fails the first n posts, then delegates to a real in-process transport."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def post(self, path, body):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("synthetic outage")
        return self.inner.post(path, body)


def make_proxy(store=None, transport=None):
    bus = MessageBus()
    store = store or MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
    transport = transport or InProcessTransport(store)
    proxy = ProxyNode(bus, transport)
    bus.subscribe("autonomous", "/telemetry/response")
    return bus, store, proxy


class TestForwardTelemetry:
    def test_queued_target_round_trip(self):
        bus, _, proxy = make_proxy()
        response = proxy.forward_telemetry(request().encode())
        assert response.has_target and response.target_id == "T1"
        bus.deliver()
        delivered = bus.drain("autonomous")
        assert len(delivered) == 1
        assert delivered[0].payload is response  # published as the value itself
        assert TelemetryResponse.decode(delivered[0].payload.encode()) == response

    def test_empty_queue_round_trip(self):
        bus, _, proxy = make_proxy(store=MissionStore([]))
        response = proxy.forward_telemetry(request().encode())
        assert not response.has_target and response.remaining_targets == 0

    def test_three_failures_publish_nothing(self):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=10)
        bus, _, proxy = make_proxy(store=store, transport=transport)
        assert proxy.forward_telemetry(request().encode()) is None
        assert proxy.degraded_events == 1
        assert transport.calls == 3  # retried exactly three times
        bus.deliver()
        # No reply is published: an empty one would read as the server's empty queue.
        assert bus.drain("autonomous") == []

    def test_transient_failure_recovers_within_retries(self):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=2)
        bus, _, proxy = make_proxy(store=store, transport=transport)
        response = proxy.forward_telemetry(request().encode())
        assert response.has_target and proxy.degraded_events == 0


    def test_requests_after_the_server_closed_the_idle_connection(self, monkeypatch, caplog):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        crash = CrashReport(uav_id="uav-1", time=2.0, position=Vec3(0, 0, -1))
        with ServerThread(store) as server:
            monkeypatch.setattr(server.httpd.RequestHandlerClass, "timeout", 0.2)
            transport = HttpTransport(port=server.port)
            _, _, proxy = make_proxy(store=store, transport=transport)
            try:
                assert proxy.forward_telemetry(request().encode()).has_target
                time.sleep(0.6)  # the server closes the connection after 0.2 s idle
                response = proxy.forward_telemetry(request(1.0).encode())
                time.sleep(0.6)
                crashed = proxy.report_crash(crash)  # a single attempt
            finally:
                transport.close()
        assert response.has_target and response.target_id == "T1"
        assert crashed
        assert proxy.degraded_events == 0
        assert (store.record_count("Telemetry"), store.record_count("Crash")) == (2, 1)
        # The stale connection cost no attempt: each request was sent again at once.
        assert not [r for r in caplog.records if "transport failure" in r.getMessage()]


class ScriptedTransport:
    """Answers each post with the next (status, body) of a script, or raises it."""

    def __init__(self, replies):
        self.replies = list(replies)

    def post(self, path, body):
        reply = self.replies.pop(0)
        if isinstance(reply, TransportError):
            raise reply
        return reply


REPLY = TelemetryResponse(True, "T1", Vec3(60.0, 0.0, 10.0), 1).encode()
OTHER = TelemetryResponse(True, "T2", Vec3(0.0, 60.0, 10.0), 0).encode()
EMPTY_QUEUE = TelemetryResponse(False, None, None, 0).encode()


class TestReplyCache:
    """An unchanged 200 reply is not decoded again; nothing else is kept."""

    def forward(self, monkeypatch, replies, forwards=None):
        """Forward ``forwards`` requests (one per reply by default).

        Returns the proxy, the bodies decoded, the payloads published (as
        bytes) and the responses, None for each degraded reply.
        """
        decoded = []
        decode = TelemetryResponse.decode.__func__
        monkeypatch.setattr(
            TelemetryResponse, "decode",
            classmethod(lambda cls, data: decoded.append(data) or decode(cls, data)),
        )
        bus, _, proxy = make_proxy(transport=ScriptedTransport(replies))
        ticks = range(forwards or len(replies))
        responses = [proxy.forward_telemetry(request().encode(), tick) for tick in ticks]
        bus.deliver()
        envelopes = bus.drain("autonomous")
        # Each response is published as the value forward_telemetry returned;
        # a degraded reply publishes nothing.
        kept = [response for response in responses if response is not None]
        assert [e.payload for e in envelopes] == kept
        assert all(e.payload is response for e, response in zip(envelopes, kept))
        published = [e.payload.encode() for e in envelopes]
        assert [decode(TelemetryResponse, payload) for payload in published] == kept
        return proxy, decoded, published, responses

    def test_the_same_reply_bytes_are_decoded_once(self, monkeypatch):
        proxy, decoded, published, responses = self.forward(
            monkeypatch, [(200, REPLY), (200, bytes(REPLY))]
        )
        assert decoded == [REPLY]
        assert published == [REPLY, REPLY] and responses[0] is responses[1]
        assert proxy.degraded_events == 0

    def test_changed_bytes_are_decoded_again(self, monkeypatch):
        _, decoded, published, _ = self.forward(
            monkeypatch, [(200, REPLY), (200, OTHER), (200, OTHER), (200, REPLY)]
        )
        assert decoded == [REPLY, OTHER, REPLY]
        assert published == [REPLY, OTHER, OTHER, REPLY]

    @pytest.mark.parametrize("bad", [(500, REPLY), (404, REPLY), (200, b"not json"),
                                     (200, b'{"has_target":true,"remaining_targets":1}')])
    def test_a_failed_reply_degrades_every_time_and_is_never_kept(self, monkeypatch, bad):
        replies = [bad, bad, (200, REPLY), bad, (200, REPLY)]
        proxy, decoded, published, responses = self.forward(monkeypatch, replies)
        assert [response is None for response in responses] == [True, True, False, True, False]
        assert published == [REPLY, REPLY]
        assert proxy.degraded_events == 3
        undecodable = [bad[1]] * 2 if bad[0] == 200 else []
        # A bad body is decoded each time it comes; the good one only once.
        assert decoded == undecodable + [REPLY] + undecodable[:1]

    def test_a_transport_outage_degrades_even_with_a_kept_reply(self, monkeypatch):
        outage = [TransportError("synthetic outage")] * 3  # every attempt of one request
        proxy, decoded, published, responses = self.forward(
            monkeypatch, [(200, REPLY), *outage, (200, REPLY)], forwards=3
        )
        assert responses[1] is None and responses[0] is responses[2]
        assert published == [REPLY, REPLY]
        assert decoded == [REPLY] and proxy.degraded_events == 1


# One post's outcome: an HTTP status with a body that decodes as a telemetry
# reply or one that does not, or a transport failure.
STATUSES = st.one_of(
    st.just(200), st.integers(201, 299), st.integers(400, 499), st.integers(500, 599)
)
BODIES = st.one_of(
    st.sampled_from([REPLY, OTHER, EMPTY_QUEUE]),
    st.sampled_from([b"", b"not json", b'{"has_target":true,"remaining_targets":1}']),
    st.binary(max_size=16),
)
OUTCOMES = st.one_of(st.tuples(STATUSES, BODIES), st.just(TransportError("synthetic outage")))
MOST_POSTS = max(TELEMETRY_RETRIES, LOCK_RETRIES + 1)  # per forwarded envelope


@st.composite
def transport_scripts(draw):
    """Envelopes to forward ("telemetry" or "lock"), and enough outcomes for every post."""
    kinds = draw(st.lists(st.sampled_from(["telemetry", "lock"]), min_size=1, max_size=8))
    size = len(kinds) * MOST_POSTS
    return kinds, draw(st.lists(OUTCOMES, min_size=size, max_size=size))


def decoded_reply(answer):
    """The response a telemetry answer publishes, or None if it degrades."""
    if answer is None or answer[0] != 200:
        return None
    try:
        return TelemetryResponse.decode(answer[1])
    except DecodeError:
        return None


class TestTransportScripts:
    """Over any script of answers and failures, the proxy keeps its retry and degrade rules."""

    @settings(max_examples=300, deadline=None)
    @given(transport_scripts())
    def test_retries_stop_at_the_first_answer_and_degrade_only_without_a_reply(self, script):
        kinds, outcomes = script
        transport = ScriptedTransport(outcomes)
        bus, _, proxy = make_proxy(transport=transport)
        degraded = 0
        for tick, kind in enumerate(kinds):
            sent = len(outcomes) - len(transport.replies)
            if kind == "telemetry":
                bus.publish("autonomous", "/telemetry", request(float(tick)), tick)
            else:
                bus.publish("autonomous", "/lock", report(), tick)
            bus.deliver()
            [envelope] = bus.drain("proxy")
            proxy.handle_envelope(envelope, tick)  # nothing escapes
            posts = outcomes[sent : len(outcomes) - len(transport.replies)]
            failures = [o for o in posts if isinstance(o, TransportError)]
            answer = None if len(failures) == len(posts) else posts[-1]
            # Only a transport failure is retried, up to the kind's attempts.
            attempts = TELEMETRY_RETRIES if kind == "telemetry" else LOCK_RETRIES + 1
            assert posts and failures == posts[: len(failures)]
            assert len(failures) + (answer is not None) == len(posts) <= attempts
            assert answer is not None or len(posts) == attempts
            bus.deliver()
            published = [e.payload for e in bus.drain("autonomous")]
            if kind == "telemetry":
                response = decoded_reply(answer)
                degraded += response is None
                assert published == ([] if response is None else [response])
            else:
                assert published == []
            assert proxy.degraded_events == degraded


class TestForwardLock:
    def test_valid_report_acknowledged_and_recorded(self):
        _, store, proxy = make_proxy()
        before = store.record_count("Lock")
        assert proxy.forward_lock(report().encode()) is True
        assert store.record_count("Lock") == before + 1

    def test_malformed_report_rejected_before_send(self):
        # A negative tick span cannot even be constructed, so it never reaches
        # the transport.
        with pytest.raises(ValueError):
            LockReport(
                uav_id="uav-1", target_id="T1", lock_start_tick=300, lock_end_tick=100,
                position=Vec3(0, 0, 0),
            )

    def test_unknown_target_not_acknowledged(self):
        _, store, proxy = make_proxy()
        assert proxy.forward_lock(report("T404").encode()) is False
        assert store.record_count("Lock") == 0

    def test_transport_outage_returns_false_after_retry(self):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=10)
        _, _, proxy = make_proxy(store=store, transport=transport)
        assert proxy.forward_lock(report().encode()) is False
        assert transport.calls == 2  # initial attempt plus one retry

    def test_a_rejected_lock_is_posted_once(self):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=0)
        _, _, proxy = make_proxy(store=store, transport=transport)
        assert proxy.forward_lock(report("T404").encode()) is False
        assert transport.calls == 1  # the 404 is the server's answer, not a failure to retry
        assert store.record_count("Lock") == 0

    @pytest.mark.parametrize("status", [500, 503])
    def test_a_server_error_is_final_too(self, status):
        transport = ScriptedTransport([(status, b"{}"), (201, b"{}")])
        _, _, proxy = make_proxy(transport=transport)
        assert proxy.forward_lock(report().encode()) is False
        assert len(transport.replies) == 1  # the 201 was never asked for

    def test_lock_attempts_are_numbered_across_the_retry(self, caplog):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=10)
        _, _, proxy = make_proxy(store=store, transport=transport)
        with caplog.at_level("WARNING", logger="lockon.proxy"):
            assert proxy.forward_lock(report().encode()) is False
        assert [r.getMessage() for r in caplog.records] == [
            "transport failure on /api/lock (attempt 1): synthetic outage",
            "transport failure on /api/lock (attempt 2): synthetic outage",
        ]


    @pytest.mark.parametrize("as_value", [True, False], ids=["value", "bytes"])
    def test_a_retried_lock_posts_one_encoding(self, monkeypatch, as_value):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=1)
        bodies = []
        post = transport.post
        transport.post = lambda path, body: bodies.append(body) or post(path, body)
        bus, _, proxy = make_proxy(store=store, transport=transport)
        lock = LockReport("uav-1", "T1", 0, 200, Vec3(0.0, 0.0, 10.0))
        body = lock.encode()
        bus.publish("autonomous", "/lock", lock if as_value else body, 0)
        bus.deliver()
        encodes = []
        encode = LockReport.encode
        monkeypatch.setattr(LockReport, "encode", lambda self: encodes.append(self) or encode(self))
        proxy.step(1)
        # The first POST fails and the retry sends the same body: the value
        # itself, never encoded, or the bytes as they came.
        sent = lock if as_value else body
        assert len(bodies) == 2 and bodies[0] is sent and bodies[1] is sent
        assert encodes == []
        assert store.record_count("Lock") == 1


class TestEnvelopePipeline:
    def test_each_telemetry_yields_one_response_in_order(self):
        bus, _, proxy = make_proxy()
        for tick in range(5):
            bus.publish("autonomous", "/telemetry", request(t=float(tick)).encode(), tick)
        bus.deliver()
        proxy.step(6)
        bus.deliver()
        responses = bus.drain("autonomous")
        assert len(responses) == 5
        assert [e.seq for e in responses] == sorted(e.seq for e in responses)

    def test_no_requests_after_land(self):
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        transport = FlakyTransport(InProcessTransport(store), failures=0)
        bus, _, proxy = make_proxy(store=store, transport=transport)
        bus.publish("autonomous", "/land", b"", 0)
        bus.publish("autonomous", "/telemetry", request().encode(), 1)
        bus.deliver()
        proxy.step(2)
        assert transport.calls == 0
        bus.deliver()
        assert bus.drain("autonomous") == []

    def test_a_telemetry_envelope_is_posted_as_its_own_bytes(self):
        # An extra field and an array position decode, so the proxy posts the
        # payload as it came; the server records the decoded request.
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        sent = []
        inner = InProcessTransport(store)

        class RecordingTransport:
            def post(self, path, body):
                sent.append(body)
                return inner.post(path, body)

        bus, _, proxy = make_proxy(store=store, transport=RecordingTransport())
        loose = b'{"uav_id":"uav-1","time":0.0,"position":[0,0,10],"state":"SEARCH","extra":1}'
        canonical = request().encode()
        bus.publish("autonomous", "/telemetry", loose, 0)
        bus.publish("autonomous", "/telemetry", canonical, 0)
        bus.deliver()
        proxy.step(1)
        assert sent == [loose, canonical]
        first, second = store.query_records("Telemetry").body["records"]
        assert first["body"] == second["body"] == request().to_obj()

    def test_malformed_envelope_does_not_crash(self):
        bus, _, proxy = make_proxy()
        bus.publish("autonomous", "/telemetry", b"not json", 0)
        bus.deliver()
        proxy.step(1)  # dropped with a warning
        bus.deliver()
        assert bus.drain("autonomous") == []
