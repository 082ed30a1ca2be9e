"""End-to-end scheduler behaviour: protocol flow, determinism, termination."""

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lockon import runner
from lockon.metrics import MetricsError, summarize_run
from lockon.proxy import InProcessTransport, TransportError
from lockon.runner import event_log_to_jsonl, parse_jsonl, run
from lockon.scenario import BUNDLED_SCENARIOS, load_scenario
from lockon.server import MissionStore, ServerThread, TargetAssignment
from lockon.world import (
    ZERO3,
    CameraParams,
    PursuerState,
    TrajectoryKind,
    TrajectorySpec,
    Vec3,
    WorldState,
    distance,
    eval_trajectory,
)

from conftest import make_scenario, random_scenario, reference_project, run_recorded


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


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self):
        scenario = load_scenario("moving_target")
        first = event_log_to_jsonl(run(scenario).event_log)
        second = event_log_to_jsonl(run(scenario).event_log)
        assert first == second

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


def reference_camera_truth(world, tracks, consumed, camera):
    """The earlier _camera_truth body, kept as the oracle: a Vec3 from
    eval_trajectory and a per-call projection for every unconsumed
    (target id, trajectory) pair."""
    best, best_norm = None, 0.0
    for target_id, spec in tracks:
        if target_id in consumed:
            continue
        uv = reference_project(world.pursuer, eval_trajectory(spec, world.time), camera)
        if uv is None:
            continue
        norm = uv[0] ** 2 + uv[1] ** 2
        if best is None or norm < best_norm:
            best, best_norm = uv, norm
    return best


def camera_truth(world, tracks, consumed, camera):
    return runner._camera_truth(world, runner._track_rows(tracks), consumed, camera)


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
    camera = CameraParams(
        hfov=draw(st.floats(0.2, 3.0)), vfov=draw(st.floats(0.2, 3.0)), frame_period=0.1
    )
    time = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=30.0))
    fx, fy, fz, rx, ry, rz, dx, dy, dz = pursuer.camera_triad()
    specs = []
    for _ in range(draw(st.integers(1, 16))):
        ahead = draw(st.floats(-50.0, 300.0))
        right = draw(st.floats(-1.5, 1.5)) * abs(ahead) * camera.tan_half_hfov
        down = draw(st.floats(-1.5, 1.5)) * abs(ahead) * camera.tan_half_vfov
        at_time = pursuer.position + Vec3(
            ahead * fx + right * rx + down * dx,
            ahead * fy + right * ry + down * dy,
            ahead * fz + right * rz + down * dz,
        )
        kind = draw(st.sampled_from(TrajectoryKind))
        v0 = a = ZERO3
        if kind is not TrajectoryKind.STATIONARY:
            v0 = Vec3(*(draw(st.floats(-8.0, 8.0)) for _ in range(3)))
        if kind is TrajectoryKind.CONSTANT_ACCELERATION:
            a = Vec3(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
        p0 = at_time - v0.scale(time) - a.scale(0.5 * time * time)
        specs.append(TrajectorySpec(kind, p0, v0, a))
    for _ in range(draw(st.integers(0, 16 - len(specs)))):
        spec = draw(st.sampled_from(specs))
        twin = mirrored(spec) if level and draw(st.booleans()) else spec
        specs.insert(draw(st.integers(0, len(specs))), twin)
    tracks = tuple((f"T{index:02d}", spec) for index, spec in enumerate(specs))
    consumed = draw(st.sets(st.sampled_from([target_id for target_id, _ in tracks])))
    world = WorldState(time=time, tick=round(time / 0.05), pursuer=pursuer)
    return world, tracks, consumed, camera


class TestCameraTruth:
    @given(selection_frames())
    def test_bit_identical_to_per_target_body(self, frame):
        world, tracks, consumed, camera = frame
        new = camera_truth(world, tracks, consumed, camera)
        old = reference_camera_truth(world, tracks, consumed, camera)
        if old is None:
            assert new is None
        else:
            assert new is not None
            assert [c.hex() for c in new] == [c.hex() for c in old]

    def test_first_of_equal_norms_wins(self):
        # Mirror images across the boresight plane: equal norms, opposite u.
        spec = TrajectorySpec(TrajectoryKind.CONSTANT_VELOCITY, Vec3(40, 6, 8), Vec3(1, 0.5, 0))
        pursuer = PursuerState(Vec3(0, 0, 10), 0.0, 0.0, 0.0)
        camera = CameraParams(hfov=math.pi / 2, vfov=math.pi / 3, frame_period=0.1)
        for first, second in ((spec, mirrored(spec)), (mirrored(spec), spec)):
            tracks = (("A", first), ("B", second))
            world = WorldState(time=2.0, tick=40, pursuer=pursuer)
            uv = camera_truth(world, tracks, set(), camera)
            expected = reference_project(pursuer, eval_trajectory(first, 2.0), camera)
            assert uv == expected and uv[0] != 0.0
            assert camera_truth(world, tracks, {"A"}, camera) == (-uv[0], uv[1])
            assert camera_truth(world, tracks, {"A", "B"}, camera) is None


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

    def test_crash_on_negative_altitude(self):
        # Start diving at ground level: the pursuer goes below z=0 quickly.
        scenario = make_scenario(
            pursuer={"position": [0, 0, 0.2], "yaw": 0.0, "pitch": -1.2, "speed": 0.0},
            targets=[{"id": "T1", "kind": "stationary", "p0": [100, 0, -50]}],
            max_time=20.0,
        )
        store = MissionStore([TargetAssignment("T1", Vec3(100, 0, -50))])
        result = run(scenario, store=store)
        assert result.terminated_by == "crash"
        assert store.record_count("Crash") == 1

    def test_shutdown_after_land(self):
        result = run(load_scenario("moving_target"))
        land_tick = topic_msgs(result, "/land")[0]["tick"]
        after = [
            e for e in result.event_log if e["kind"] == "msg" and e["tick"] > land_tick
        ]
        assert after == []


class FlakyLink:
    """The in-process transport behind a link that, by a seeded draw, fails a post,
    answers it with a 5xx or with a body that does not decode, or passes it on."""

    def __init__(self, store, seed):
        self.inner = InProcessTransport(store)
        self.rng = random.Random(seed)
        self.faults = 0

    def post(self, path, body):
        draw = self.rng.random()
        if draw >= 0.3:
            return self.inner.post(path, body)
        self.faults += 1
        if draw < 0.1:
            raise TransportError("synthetic outage")
        if draw < 0.2:
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

    def test_payloads_are_json_objects_or_null(self):
        result = run(load_scenario("moving_target"))
        for entry in result.event_log:
            if entry["kind"] == "msg":
                assert entry["payload"] is None or isinstance(entry["payload"], dict)
        json.dumps(result.event_log)  # fully serializable
