"""End-to-end scheduler behaviour: protocol flow, determinism, termination."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from lockon import runner
from lockon.metrics import MetricsError
from lockon.runner import event_log_to_jsonl, parse_jsonl, run
from lockon.scenario import load_scenario
from lockon.server import MissionStore, TargetAssignment
from lockon.world import (
    ZERO3,
    CameraParams,
    PursuerState,
    TargetTrack,
    TrajectoryKind,
    TrajectorySpec,
    Vec3,
    WorldState,
    distance,
    eval_trajectory,
)

from conftest import make_scenario, reference_project, run_recorded


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


def reference_camera_truth(world, consumed, camera):
    """The earlier _camera_truth body, kept as the oracle: a Vec3 from
    eval_trajectory and a per-call projection for every unconsumed track."""
    best, best_norm = None, 0.0
    for track in world.targets:
        if track.target_id in consumed:
            continue
        uv = reference_project(world.pursuer, eval_trajectory(track.spec, world.time), camera)
        if uv is None:
            continue
        norm = uv[0] ** 2 + uv[1] ** 2
        if best is None or norm < best_norm:
            best, best_norm = uv, norm
    return best


def camera_truth(world, consumed, camera):
    return runner._camera_truth(world, runner._track_rows(world.targets), consumed, camera)


def mirrored(spec):
    """The spec reflected across the plane y = 0."""
    p0, v0, a = (Vec3(v.x, -v.y, v.z) for v in (spec.p0, spec.v0, spec.a))
    return TrajectorySpec(spec.kind, p0, v0, a)


@st.composite
def selection_frames(draw):
    """A camera frame over 1-16 tracks, with the consumed ids drawn as a subset.

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
    tracks = tuple(TargetTrack(f"T{index:02d}", spec) for index, spec in enumerate(specs))
    consumed = draw(st.sets(st.sampled_from([track.target_id for track in tracks])))
    world = WorldState(time=time, tick=round(time / 0.05), pursuer=pursuer, targets=tracks)
    return world, consumed, camera


class TestCameraTruth:
    @given(selection_frames())
    def test_bit_identical_to_per_target_body(self, frame):
        world, consumed, camera = frame
        new, old = camera_truth(world, consumed, camera), reference_camera_truth(world, consumed, camera)
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
            tracks = (TargetTrack("A", first), TargetTrack("B", second))
            world = WorldState(time=2.0, tick=40, pursuer=pursuer, targets=tracks)
            uv = camera_truth(world, set(), camera)
            expected = reference_project(pursuer, eval_trajectory(first, 2.0), camera)
            assert uv == expected and uv[0] != 0.0
            assert camera_truth(world, {"A"}, camera) == (-uv[0], uv[1])
            assert camera_truth(world, {"A", "B"}, camera) is None


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


class TestHttpTransportMode:
    def test_run_against_loopback_server_matches_in_process(self):
        from lockon.server import ServerThread

        scenario = load_scenario("moving_target")
        in_process = run(scenario)

        store = MissionStore(
            [TargetAssignment(tid, spec.p0) for tid, spec in scenario.targets]
        )
        with ServerThread(store) as server:
            http_scenario = dataclasses.replace(
                scenario,
                transport=dataclasses.replace(
                    scenario.transport,
                    mode="http",
                    base_url=f"http://127.0.0.1:{server.port}",
                ),
            )
            over_http = run(http_scenario)
        assert over_http.terminated_by == "land"
        assert over_http.report.per_target == in_process.report.per_target
        assert store.record_count("Lock") == 1


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
