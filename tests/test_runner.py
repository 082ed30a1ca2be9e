"""End-to-end scheduler behaviour: protocol flow, determinism, termination."""

import copy
import dataclasses
import hashlib
import json
import math
import random
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lockon import autonomy, runner
from lockon.autonomy import AutonomousNode, MissionState
from lockon.bus import (
    IMAGE_MESSAGE,
    LAND,
    LOCK,
    SIGNAL_PROCESS_IMAGE,
    TELEMETRY,
    TELEMETRY_RESPONSE,
    Envelope,
    MessageBus,
)
from lockon.metrics import MetricsError, parse_jsonl, summarize_run
from lockon.payloads import CrashReport, LockReport, OffsetMessage, TelemetryRequest
from lockon.proxy import HttpTransport, InProcessTransport, ProxyNode, TransportError
from lockon.runner import event_log_to_jsonl, run
from lockon.scenario import BUNDLED_SCENARIOS, load_scenario
from lockon.server import MissionStore, ServerThread, TargetAssignment
from lockon.vision import VisionNode
from lockon.world import (
    ZERO3,
    CameraParams,
    PursuerState,
    SteeringCommand,
    TrajectoryKind,
    TrajectorySpec,
    Vec3,
    distance,
    eval_trajectory,
)

from conftest import (
    make_scenario,
    random_scenario,
    reference_project,
    reference_triad,
    run_recorded,
    stored_records,
)


def topic_msgs(result, topic):
    return [e for e in result.event_log if e["kind"] == "msg" and e["topic"] == topic]


class TestShippedScenarios:
    def test_moving_target_locks_and_lands(self):
        result = run(load_scenario("moving_target"))
        assert result.terminated_by == "land"
        outcome = result.report.per_target[0]
        assert outcome.locked and outcome.time_to_lock >= 10.0

    def test_hovering_target_fails_containment(self):
        result = run(load_scenario("hovering_target"))
        assert result.terminated_by == "timeout"
        outcome = result.report.per_target[0]
        assert not outcome.locked
        assert outcome.reason == "containment_never_reached"
        assert 0.0 < outcome.max_containment_s < 10.0

    def test_no_frame_is_rendered_before_the_signal(self, monkeypatch):
        scenario = load_scenario("hovering_target")
        now = [0]
        projected = []
        world_step, project = runner.world_step, runner.project_to_camera

        def step_and_note_tick(*args):
            now[0] += 1  # the scheduler steps once per tick from tick 1
            return world_step(*args)

        def project_and_note_tick(*args):
            projected.append(now[0])
            return project(*args)

        monkeypatch.setattr(runner, "world_step", step_and_note_tick)
        monkeypatch.setattr(runner, "project_to_camera", project_and_note_tick)
        result = run(scenario)
        signal = next(
            e["tick"] for e in result.event_log if e.get("topic") == "/signal/process_image"
        )
        # The signal is delivered at the end of its tick; the vision node
        # arms on the next one and renders the first frame due from then.
        first_frame = (signal // scenario.frame_ticks + 1) * scenario.frame_ticks
        assert projected and min(projected) == first_frame

    def test_protocol_completeness_single_target(self):
        result = run(load_scenario("moving_target"))
        counts = result.report.topic_counts
        assert counts["/telemetry"] >= 1
        assert counts["/telemetry/response"] >= 1
        assert counts["/signal/process_image"] == 1
        assert counts["/image/message"] >= 100  # lock_duration / frame_period
        assert counts["/lock"] == 1
        assert counts["/land"] == 1
        order = [
            e["topic"]
            for e in result.event_log
            if e["kind"] == "msg"
            and e["topic"] in ("/signal/process_image", "/lock", "/land")
        ]
        assert order == ["/signal/process_image", "/lock", "/land"]


def queue_mission(targets=16):
    """A long mission of the benchmark's target_queue shape: a row of movers 65-75 m apart."""
    rng = random.Random(7)
    x, queue = 60.0, []
    for index in range(targets):
        queue.append({"id": f"T{index + 1:02d}", "kind": "constant_velocity",
                      "p0": [x, 0.0, 10.0], "v0": [rng.uniform(5.2, 5.8), 0.0, 0.0]})
        x += rng.uniform(65.0, 75.0)
    return make_scenario(max_time=400.0, targets=queue,
                         vision={"p_detect": 0.95, "detector_latency_frames": 1})


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self):
        scenario = load_scenario("moving_target")
        first = event_log_to_jsonl(run(scenario).event_log)
        second = event_log_to_jsonl(run(scenario).event_log)
        assert first == second

    @pytest.mark.parametrize("build", ["bundled", "target_queue"])
    def test_a_scenario_runs_again_unchanged(self, build):
        # The run flies a copy of the start pose, so running a Scenario again
        # replays it and leaves pursuer_init as it was.
        scenario = load_scenario("moving_target") if build == "bundled" else queue_mission()
        start = copy.copy(scenario.pursuer_init)
        first = run(scenario)
        assert scenario.pursuer_init == start
        second = run(scenario)
        assert scenario.pursuer_init == start
        assert event_log_to_jsonl(first.event_log) == event_log_to_jsonl(second.event_log)
        if build == "target_queue":
            assert all(outcome.locked for outcome in first.report.per_target)

    def test_different_seed_changes_detector_pattern(self):
        # With p_detect < 1 the first-detection frame is seed-dependent, so a
        # batch of seeds must produce more than one firing pattern.
        base = make_scenario(vision={"p_detect": 0.5, "detector_latency_frames": 1})
        patterns = set()
        for seed in range(8):
            scenario = dataclasses.replace(base, seed=seed)
            ticks = [m["payload"]["tick"] for m in topic_msgs(run(scenario), "/image/message")]
            patterns.add(tuple(ticks))
        assert len(patterns) > 1

    def test_jsonl_round_trip(self):
        result = run(make_scenario(max_time=20.0))
        text = event_log_to_jsonl(result.event_log)
        assert parse_jsonl(text) == result.event_log

    def test_jsonl_lines_end_at_newline_only(self):
        # JSON allows U+2028 and U+0085 unescaped in a string; splitlines cut there.
        text = '{"kind":"meta","note":"a\u2028b\x85c"}\r\n\n{"kind":"end"}\n'
        assert parse_jsonl(text) == [{"kind": "meta", "note": "a\u2028b\x85c"}, {"kind": "end"}]

    @pytest.mark.parametrize("line", ['{"dt":NaN}', '{"dt":1e400}', "[" * 100_000, "{"])
    def test_jsonl_names_the_line_that_is_not_strict_json(self, line):
        with pytest.raises(MetricsError, match="^line 2: "):
            parse_jsonl("{}\n" + line + "\n")


class TestMultiTarget:
    def test_two_targets_locked_in_sequence(self):
        scenario = make_scenario(
            max_time=80.0,
            targets=[
                {"id": "T1", "kind": "constant_velocity", "p0": [60, 0, 10], "v0": [5.5, 0, 0]},
                {"id": "T2", "kind": "constant_velocity", "p0": [140, 0, 10], "v0": [5.5, 0, 0]},
            ],
            vision={"p_detect": 1.0, "detector_latency_frames": 0},
        )
        result = run(scenario)
        assert result.terminated_by == "land"
        assert [t.target_id for t in result.report.per_target] == ["T1", "T2"]
        assert all(t.locked for t in result.report.per_target)
        assert result.report.topic_counts["/signal/process_image"] == 2
        assert result.report.topic_counts["/lock"] == 2
        assert result.report.topic_counts["/land"] == 1

    def test_zero_target_mission_lands_immediately(self):
        scenario = make_scenario(targets=[])
        result = run(scenario)
        assert result.terminated_by == "land"
        assert result.report.per_target == ()
        assert result.report.topic_counts["/land"] == 1


def reference_camera_truth(pursuer, time, tracks, consumed, camera):
    """The earlier _camera_truth body, kept as the oracle: a Vec3 from
    eval_trajectory and a per-call projection for every unconsumed
    (target id, trajectory) pair."""
    best, best_norm = None, 0.0
    for target_id, spec in tracks:
        if target_id in consumed:
            continue
        uv = reference_project(pursuer, eval_trajectory(spec, time), camera)
        if uv is None:
            continue
        norm = uv[0] ** 2 + uv[1] ** 2
        if best is None or norm < best_norm:
            best, best_norm = uv, norm
    return best


def camera_truth(pursuer, time, tracks, consumed, camera):
    return runner._camera_truth(pursuer, time, runner._track_rows(tracks), consumed, camera)


def mirrored(spec):
    """The spec reflected across the plane y = 0."""
    p0, v0, a = (Vec3(v.x, -v.y, v.z) for v in (spec.p0, spec.v0, spec.a))
    return TrajectorySpec(spec.kind, p0, v0, a)


@st.composite
def selection_frames(draw):
    """A camera frame over 1-16 (target id, trajectory) pairs, with the
    consumed ids drawn as a subset.

    Each track's position at the frame time is drawn in camera coordinates
    (forward, right, down), up to 1.5 times the frame's half-width off the
    boresight and partly behind the camera, then carried back to p0 along
    its trajectory. Exact copies of tracks, and mirror images when the
    camera looks along +x from y = 0, tie in norm with the original.
    """
    level = draw(st.booleans())
    pitch = draw(st.floats(min_value=-1.2, max_value=1.2))
    if level:
        x, z = draw(st.floats(-100, 100)), draw(st.floats(-100, 100))
        pursuer = PursuerState(Vec3(x, 0.0, z), 0.0, pitch, 0.0)
    else:
        origin = Vec3(*(draw(st.floats(-100, 100)) for _ in range(3)))
        pursuer = PursuerState(origin, draw(st.floats(-4.0, 4.0)), pitch, 0.0)
    camera = CameraParams(hfov=draw(st.floats(0.2, 3.0)), vfov=draw(st.floats(0.2, 3.0)))
    time = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=30.0))
    fx, fy, fz, rx, ry, rz, dx, dy, dz = reference_triad(pursuer.yaw, pursuer.pitch)
    specs = []
    for _ in range(draw(st.integers(1, 16))):
        ahead = draw(st.floats(-50.0, 300.0))
        right = draw(st.floats(-1.5, 1.5)) * abs(ahead) * camera.tan_half_hfov
        down = draw(st.floats(-1.5, 1.5)) * abs(ahead) * camera.tan_half_vfov
        at_time = (
            pursuer.x + (ahead * fx + right * rx + down * dx),
            pursuer.y + (ahead * fy + right * ry + down * dy),
            pursuer.z + (ahead * fz + right * rz + down * dz),
        )
        kind = draw(st.sampled_from(TrajectoryKind))
        v0 = a = ZERO3
        if kind is not TrajectoryKind.STATIONARY:
            v0 = Vec3(*(draw(st.floats(-8.0, 8.0)) for _ in range(3)))
        if kind is TrajectoryKind.CONSTANT_ACCELERATION:
            a = Vec3(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
        half_t2 = 0.5 * time * time
        p0 = Vec3(*((p - v * time) - acc * half_t2
                    for p, v, acc in zip(at_time, (v0.x, v0.y, v0.z), (a.x, a.y, a.z))))
        specs.append(TrajectorySpec(kind, p0, v0, a))
    for _ in range(draw(st.integers(0, 16 - len(specs)))):
        spec = draw(st.sampled_from(specs))
        twin = mirrored(spec) if level and draw(st.booleans()) else spec
        specs.insert(draw(st.integers(0, len(specs))), twin)
    tracks = tuple((f"T{index:02d}", spec) for index, spec in enumerate(specs))
    consumed = draw(st.sets(st.sampled_from([target_id for target_id, _ in tracks])))
    return pursuer, time, tracks, consumed, camera


class TestCameraTruth:
    @given(selection_frames())
    def test_bit_identical_to_per_target_body(self, frame):
        new = camera_truth(*frame)
        old = reference_camera_truth(*frame)
        if old is None:
            assert new is None
        else:
            assert new is not None
            assert [c.hex() for c in new] == [c.hex() for c in old]

    def test_first_of_equal_norms_wins(self):
        # Mirror images across the boresight plane: equal norms, opposite u.
        spec = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, Vec3(40, 6, 8), Vec3(1, 0.5, 0))
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        camera = CameraParams(hfov=math.pi / 2, vfov=math.pi / 3)
        for first, second in ((spec, mirrored(spec)), (mirrored(spec), spec)):
            tracks = (("A", first), ("B", second))
            uv = camera_truth(pursuer, 2.0, tracks, set(), camera)
            expected = reference_project(pursuer, eval_trajectory(first, 2.0), camera)
            assert uv == expected and uv[0] != 0.0
            assert camera_truth(pursuer, 2.0, tracks, {"A"}, camera) == (-uv[0], uv[1])
            assert camera_truth(pursuer, 2.0, tracks, {"A", "B"}, camera) is None


def crashing_scenario():
    """Diving from just above the ground: the pursuer goes below z=0 quickly."""
    return make_scenario(
        pursuer={"position": [0, 0, 0.2], "yaw": 0.0, "pitch": -1.2, "speed": 0.0},
        targets=[{"id": "T1", "kind": "stationary", "p0": [100, 0, -50]}],
        max_time=20.0,
    )


class TestTermination:
    def test_timeout_bounds_tick_count(self):
        scenario = make_scenario(
            max_time=5.0,
            targets=[{"id": "T1", "kind": "stationary", "p0": [500, 0, 10]}],
        )
        result = run(scenario)
        assert result.terminated_by == "timeout"
        end = result.event_log[-1]
        assert end["kind"] == "end"
        assert end["tick"] <= scenario.max_ticks + 1

    @pytest.mark.parametrize("max_time, end_tick", [(0.1, 3), (0.2, 4)])
    def test_a_land_ends_the_run_after_the_grace_or_at_max_ticks_plus_one(self, max_time, end_tick):
        # With no target the node lands at tick 2: at max_ticks 2 the run ends at
        # max_ticks + 1 = 3, at max_ticks 4 after the 2 grace ticks.
        result = run(make_scenario(targets=[], max_time=max_time))
        assert [e["tick"] for e in result.event_log if e.get("topic") == "/land"] == [2]
        assert result.terminated_by == "land"
        assert result.event_log[-1] == {"kind": "end", "terminated_by": "land", "tick": end_tick}

    def test_crash_on_negative_altitude(self):
        scenario = crashing_scenario()
        store = MissionStore([TargetAssignment("T1", Vec3(100, 0, -50))])
        result = run(scenario, store=store)
        assert result.terminated_by == "crash"
        assert store.record_count("Crash") == 1
        # The crash is reported at the end tick, at the scheduler's tick * dt.
        (crash,) = store.query_records("Crash").body["records"]
        end_tick = result.event_log[-1]["tick"]
        assert crash["body"]["time"].hex() == (end_tick * scenario.dt).hex()

    def test_shutdown_after_land(self):
        result = run(load_scenario("moving_target"))
        land_tick = topic_msgs(result, "/land")[0]["tick"]
        after = [
            e for e in result.event_log if e["kind"] == "msg" and e["tick"] > land_tick
        ]
        assert after == []


class FlakyLink:
    """The in-process transport behind a link that fails a seeded share ``rate`` of posts.

    A failed post, in equal shares, raises a TransportError, is answered with
    a 5xx, or is answered 200 with a body that does not decode.
    """

    def __init__(self, store, seed, rate=0.3):
        self.inner = InProcessTransport(store)
        self.rng = random.Random(f"{seed}/link")
        self.rate = rate
        self.faults = 0

    def post(self, path, body):
        draw = self.rng.random()
        if draw >= self.rate:
            return self.inner.post(path, body)
        self.faults += 1
        if draw < self.rate / 3:
            raise TransportError("synthetic outage")
        if draw < 2 * self.rate / 3:
            return self.rng.choice([500, 502, 503]), b'{"error": "upstream"}'
        return 200, self.rng.choice([b"", b"not json", b'{"has_target": true}'])


class TestFlakyLink:
    @pytest.mark.parametrize("seed", range(8))
    def test_a_run_ends_and_its_log_gets_a_report(self, monkeypatch, seed):
        links = []
        monkeypatch.setattr(
            runner, "InProcessTransport", lambda store: links.append(FlakyLink(store, seed)) or links[-1]
        )
        result = run(random_scenario(seed))
        assert links[0].faults > 0
        assert result.event_log[-1]["kind"] == "end"
        # The log as written and read back: a report, never a MetricsError.
        entries = parse_jsonl(event_log_to_jsonl(result.event_log))
        assert summarize_run(entries) == result.report

    @pytest.mark.parametrize("rate", [0.05, 0.3])
    def test_a_degraded_reply_does_not_land_the_mission(self, monkeypatch, rate):
        # The proxy publishes nothing for a degraded telemetry reply, so the
        # UAV keeps its assignment and only the server's own empty queue
        # lands it: every run that lands has locked its target.
        unlocked = []
        for seed in range(200):
            monkeypatch.setattr(
                runner, "InProcessTransport", lambda store: FlakyLink(store, seed, rate)
            )
            result = run(random_scenario(seed))
            per_target = result.report.per_target
            if result.terminated_by == "land" and not (
                per_target and all(outcome.locked for outcome in per_target)
            ):
                unlocked.append(seed)
        assert unlocked == []


class TestActivationRule:
    def test_signal_fires_at_first_crossing(self):
        scenario = load_scenario("moving_target")
        result, samples = run_recorded(scenario)
        signal_tick = topic_msgs(result, "/signal/process_image")[0]["tick"]
        radius = scenario.gains.activation_radius
        by_tick = {tick: (pursuer, target) for tick, pursuer, target in samples}
        pursuer, target = by_tick[signal_tick]
        assert target is not None
        assert distance(pursuer, target) < radius
        for tick, pursuer, target in samples:
            if tick >= signal_tick:
                break
            if target is not None:
                assert distance(pursuer, target) >= radius

    def test_the_recorder_keeps_each_ticks_position(self):
        # The run's one pursuer moves in place; each sample is a Vec3 taken then.
        scenario = load_scenario("moving_target")
        _, samples = run_recorded(scenario)
        positions = [position for _, position, _ in samples]
        assert all(type(position) is Vec3 for position in positions)
        assert positions[0] == scenario.pursuer_init.position
        assert len(set(positions)) > len(positions) // 2


class TestTelemetryPairing:
    def test_every_request_answered_in_land_runs(self):
        result = run(load_scenario("moving_target"))
        requests = topic_msgs(result, "/telemetry")
        responses = topic_msgs(result, "/telemetry/response")
        assert len(requests) == len(responses)

    def test_timeout_runs_allow_one_in_flight(self):
        result = run(load_scenario("hovering_target"))
        requests = len(topic_msgs(result, "/telemetry"))
        responses = len(topic_msgs(result, "/telemetry/response"))
        assert responses in (requests, requests - 1)


def run_over_http(scenario):
    """Run ``scenario`` against a loopback server seeded with its targets; the result and the store."""
    store = MissionStore([TargetAssignment(tid, spec.p0) for tid, spec in scenario.targets])
    with ServerThread(store) as server:
        http_scenario = dataclasses.replace(
            scenario,
            transport=dataclasses.replace(
                scenario.transport,
                mode="http",
                base_url=f"http://127.0.0.1:{server.port}",
            ),
        )
        return run(http_scenario), store


class TestHttpTransportMode:
    def test_run_against_loopback_server_matches_in_process(self):
        scenario = load_scenario("moving_target")
        in_process = run(scenario)
        over_http, store = run_over_http(scenario)
        assert over_http.terminated_by == "land"
        assert over_http.report.per_target == in_process.report.per_target
        assert store.record_count("Lock") == 1

    @pytest.mark.parametrize(
        "make, ends", [(lambda: load_scenario("moving_target"), "land"), (crashing_scenario, "crash")],
        ids=["moving_target", "crash"],
    )
    def test_in_process_and_http_stores_record_the_same(self, make, ends):
        """In-process the server takes each message as a value; over HTTP, as its bytes."""
        scenario = make()
        store = MissionStore([TargetAssignment(tid, spec.p0) for tid, spec in scenario.targets])
        in_process = run(scenario, store=store)
        over_http, http_store = run_over_http(scenario)
        assert in_process.terminated_by == over_http.terminated_by == ends
        assert stored_records(store) and stored_records(http_store) == stored_records(store)
        assert http_store.queue_length() == store.queue_length()

    @pytest.mark.parametrize("message", [
        LockReport("uav-1", "T1", 3, 9, Vec3(1.0, -0.0, 10.0)),
        TelemetryRequest("uav-1", 2, Vec3(0, 0, 10), "SEARCH"),  # ints in float fields
        CrashReport("uav-1", 1e300, Vec3(0.5, 0.0, -1.0)),
    ], ids=lambda message: type(message).__name__)
    def test_http_transport_posts_a_value_as_its_encoding(self, message):
        path = {LockReport: "/api/lock", TelemetryRequest: "/api/telemetry", CrashReport: "/api/crash"}
        in_process = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        expected = in_process.dispatch("POST", path[type(message)], message.encode())
        store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
        with ServerThread(store) as server:
            transport = HttpTransport(port=server.port)
            try:
                status, data = transport.post(path[type(message)], message)
            finally:
                transport.close()
        assert (status, data) == (expected.status, expected.encode())
        assert stored_records(store) == stored_records(in_process) and len(stored_records(store)) == 1

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_loopback_run_logs_the_golden_bytes(self, name):
        """Over HTTP, each bundled scenario at its file seed logs the bytes pinned in-process."""
        golden = json.loads(Path(__file__).with_name("golden_logs.json").read_text(encoding="utf-8"))
        scenario = load_scenario(name)
        over_http, _ = run_over_http(scenario)
        digest = hashlib.sha256(event_log_to_jsonl(over_http.event_log).encode()).hexdigest()
        assert digest == golden[f"{name}/{scenario.seed}"]


class TestEventLogShape:
    def test_meta_first_end_last(self):
        result = run(make_scenario(max_time=10.0))
        assert result.event_log[0]["kind"] == "meta"
        assert result.event_log[-1]["kind"] == "end"

    def test_msg_entries_ordered_within_tick(self):
        result = run(load_scenario("moving_target"))
        msgs = [e for e in result.event_log if e["kind"] == "msg"]
        keys = [(m["tick"], m["publisher"], m["seq"]) for m in msgs]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_each_publisher_numbers_its_messages_from_zero(self, name):
        seqs: dict[str, list[int]] = {}
        for entry in run(load_scenario(name)).event_log:
            if entry["kind"] == "msg":
                seqs.setdefault(entry["publisher"], []).append(entry["seq"])
        assert {"autonomous", "proxy", "vision"} <= set(seqs)
        assert all(series == list(range(len(series))) for series in seqs.values())

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_telemetry_time_is_exactly_tick_times_dt(self, name):
        scenario = load_scenario(name)
        telemetry = topic_msgs(run(scenario), "/telemetry")
        assert telemetry
        for entry in telemetry:
            assert entry["payload"]["time"].hex() == (entry["tick"] * scenario.dt).hex()

    def test_payloads_are_json_objects_or_null(self):
        result = run(load_scenario("moving_target"))
        for entry in result.event_log:
            if entry["kind"] == "msg":
                assert entry["payload"] is None or isinstance(entry["payload"], dict)
        json.dumps(result.event_log)  # fully serializable

    def test_observer_logs_what_parsed_reads(self, monkeypatch):
        # The run's own observer, called after the run on one envelope of each kind.
        observers = []

        class Bus(MessageBus):
            def __init__(self, observer=None):
                super().__init__(observer)
                observers.append(observer)

        monkeypatch.setattr(runner, "MessageBus", Bus)
        result = run(make_scenario(max_time=1.0))
        (observer,) = observers

        class Offset(OffsetMessage):
            __slots__ = ()

        kinds = {
            "value": OffsetMessage(0.5, -0.25, 7),
            "subclass value": Offset(0.5, -0.25, 7),
            "lock value": LockReport("uav-1", "T9", 3, 7, Vec3(1.0, 2.0, 3.0)),
            "bytes": OffsetMessage(0.5, -0.25, 7).encode(),
            "empty": b"",
            "malformed": b"NaN",
        }
        for kind, payload in kinds.items():
            envelope = Envelope(LOCK, payload, "node", 0, 7)
            observer(envelope)
            entry = result.event_log[-1]
            assert entry["seq"] == 0 and entry["topic"] == LOCK, kind
            if kind == "empty":
                assert entry["payload"] is None and "malformed" not in entry
            elif kind == "malformed":
                with pytest.raises(ValueError):
                    envelope.parsed()
                assert entry["payload"] is None and entry["malformed"] is True
            else:
                assert entry["payload"] == envelope.parsed() and "malformed" not in entry, kind
                assert type(entry["payload"]) is dict



class TestTickCallsOnlyWhatItUses:
    """The per-tick path makes no call it does not use: no builtin min or max
    in the pitch clamp, no key function built per delivery, and no node step
    on a tick where that node has nothing to do."""

    def test_world_step_calls_neither_min_nor_max(self):
        names = runner.world_step.__code__.co_names
        assert "min" not in names and "max" not in names

    def test_deliver_builds_no_function_per_call(self):
        consts = MessageBus.deliver.__code__.co_consts
        assert not any(isinstance(const, types.CodeType) for const in consts)

    def test_vision_steps_on_frame_ticks_and_the_proxy_on_mail(self, monkeypatch):
        scenario = load_scenario("moving_target")
        vision_ticks, proxy_ticks, vision_drain_ticks = [], [], []
        vision_step, proxy_step, drain = VisionNode.step, ProxyNode.step, MessageBus.drain

        def counted_vision_step(node, tick, frame):
            vision_ticks.append(tick)
            vision_step(node, tick, frame)

        def counted_proxy_step(node, tick):
            proxy_ticks.append(tick)
            proxy_step(node, tick)

        def counted_drain(bus, client_id):
            if client_id == VisionNode.CLIENT_ID:
                vision_drain_ticks.append(vision_ticks[-1])
            return drain(bus, client_id)

        monkeypatch.setattr(VisionNode, "step", counted_vision_step)
        monkeypatch.setattr(ProxyNode, "step", counted_proxy_step)
        monkeypatch.setattr(MessageBus, "drain", counted_drain)
        result = run(scenario)

        golden = json.loads(Path(__file__).with_name("golden_logs.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(event_log_to_jsonl(result.event_log).encode()).hexdigest()
        assert digest == golden[f"moving_target/{scenario.seed}"]
        end = result.event_log[-1]["tick"]
        assert vision_ticks == list(range(0, end + 1, scenario.frame_ticks))
        # Mail delivered on tick t is in the proxy's inbox when tick t + 1 begins.
        mail_ticks = sorted({
            e["tick"] + 1
            for e in result.event_log
            if e["kind"] == "msg" and e["topic"] in (TELEMETRY, LOCK, LAND) and e["tick"] < end
        })
        assert proxy_ticks == mail_ticks
        # Vision drains only on a frame tick that begins with mail: the first
        # frame tick after the tick that delivered it.
        frame_ticks = scenario.frame_ticks
        vision_mail = sorted({
            -(-(e["tick"] + 1) // frame_ticks) * frame_ticks
            for e in result.event_log
            if e["kind"] == "msg" and e["topic"] in (SIGNAL_PROCESS_IMAGE, LAND)
        })
        assert len(vision_mail) == 2 and vision_mail[-1] <= end  # the signal and /land
        assert vision_drain_ticks == vision_mail

    def test_the_node_drains_on_mail_delivery_runs_on_publishes_and_search_builds_no_command(
        self, monkeypatch
    ):
        scenario = load_scenario("moving_target")
        tick = None
        drain_ticks, deliver_ticks, steered = [], [], []
        built = 0
        node_step, drain, deliver = AutonomousNode.step, MessageBus.drain, MessageBus.deliver
        command_init = SteeringCommand.__init__

        def counted_node_step(node, now, time, pursuer):
            nonlocal tick
            tick = now
            node_step(node, now, time, pursuer)
            if node.state in (MissionState.SEARCH, MissionState.LOCK):
                # SEARCH and LOCK fly the node's one command, or hold with no target.
                aimed = node.state is MissionState.LOCK or node.ctx.target_position is not None
                assert node.guidance is (node._steering if aimed else autonomy._HOLD)
                steered.append(node.state)

        def counted_drain(bus, client_id):
            if client_id == AutonomousNode.CLIENT_ID:
                drain_ticks.append(tick)
            return drain(bus, client_id)

        def counted_deliver(bus):
            deliver_ticks.append(tick)
            return deliver(bus)

        def counted_command_init(command, *args, **kwargs):
            nonlocal built
            built += 1
            command_init(command, *args, **kwargs)

        monkeypatch.setattr(AutonomousNode, "step", counted_node_step)
        monkeypatch.setattr(MessageBus, "drain", counted_drain)
        monkeypatch.setattr(MessageBus, "deliver", counted_deliver)
        monkeypatch.setattr(SteeringCommand, "__init__", counted_command_init)
        result = run(scenario)

        golden = json.loads(Path(__file__).with_name("golden_logs.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(event_log_to_jsonl(result.event_log).encode()).hexdigest()
        assert digest == golden[f"moving_target/{scenario.seed}"]
        end = result.event_log[-1]["tick"]
        messages = [e for e in result.event_log if e["kind"] == "msg"]
        # A publish is delivered in the tick that makes it.
        assert deliver_ticks == sorted({e["tick"] for e in messages})
        # Mail delivered on tick t is in the node's inbox when tick t + 1 begins.
        assert drain_ticks == sorted({
            e["tick"] + 1
            for e in messages
            if e["topic"] in (TELEMETRY_RESPONSE, IMAGE_MESSAGE, LAND) and e["tick"] < end
        })
        assert steered.count(MissionState.SEARCH) > end // 4
        assert steered.count(MissionState.LOCK) > end // 4
        assert built == 1  # the node's one command, built with the node
