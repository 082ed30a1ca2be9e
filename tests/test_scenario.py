"""Scenario loading, validation diagnostics, and defaulting."""

import json
import os
import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from lockon import cli
from lockon.autonomy import ControlGains
from lockon.runner import parse_jsonl
from lockon.scenario import (
    BUNDLED_SCENARIOS,
    ScenarioError,
    TransportConfig,
    bundled_scenario_bytes,
    load_scenario,
    scenario_from_dict,
)
from lockon.vision import VisionParams
from lockon.world import TrajectoryKind

from conftest import json_scalars, json_values, make_scenario


class TestLoadScenario:
    def test_bundled_moving_target(self):
        scenario = load_scenario("moving_target")
        assert scenario.name == "moving_target"
        assert len(scenario.targets) == 1
        assert scenario.targets[0][1].kind is TrajectoryKind.CONSTANT_VELOCITY

    def test_file_path_round_trip(self, tmp_path):
        data = {
            "name": "from-file",
            "targets": [{"id": "T1", "kind": "stationary", "p0": [50, 0, 10]}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        scenario = load_scenario(path)
        assert scenario.name == "from-file"
        assert scenario.dt == 0.05  # defaults applied

    def test_missing_file_and_unknown_bundle(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            load_scenario("does_not_exist")

    @pytest.mark.parametrize("kind", ["empty", "directory", "nul-byte"])
    def test_unreadable_path_is_a_scenario_error_naming_it(self, tmp_path, kind):
        path = {"empty": "", "directory": str(tmp_path), "nul-byte": "a\x00b"}[kind]
        with pytest.raises(ScenarioError, match=re.escape(f"{path!r}: cannot read")):
            load_scenario(path)

    def test_fifo_is_read_like_a_file(self, tmp_path):
        fifo = tmp_path / "s.json"
        os.mkfifo(fifo)
        data = json.dumps({"name": "piped", "targets": []}).encode()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        assert load_scenario(fifo).name == "piped"
        writer.join(timeout=5.0)

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"[" * 200_000 + b"]" * 200_000,
            '{"targets": [], "name": "caf\xe9"}'.encode("latin-1"),
            '{"targets": []}'.encode("utf-16"),
            b'{"targets": [], "note": [NaN, 1e400]}',
        ],
        ids=["nested-200000-deep", "latin-1", "utf-16", "non-finite-unread"],
    )
    def test_unparseable_file_is_a_scenario_error(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)


class TestValidation:
    def test_zero_dt_names_the_field(self):
        with pytest.raises(ScenarioError, match="dt"):
            make_scenario(dt=0.0)

    def test_frame_period_must_divide(self):
        with pytest.raises(ScenarioError, match="frame_period"):
            make_scenario(frame_period=0.07)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"dt": 1e-320, "frame_period": 1e300}, "frame_period / dt"),
            ({"dt": 1e-300, "max_time": 1e300}, "max_time / dt"),
            ({"gains": {"camera_grace": 1e308}}, "gains.camera_grace / dt"),
        ],
    )
    def test_tick_count_overflow_names_both_fields(self, overrides, field):
        with pytest.raises(ScenarioError, match=re.escape(field)):
            make_scenario(overrides)

    # Each scenario loaded before these checks and then stopped mid-run: the
    # yaw rate times dt overflowed before wrap_angle (math domain error), and
    # the pursuer position overflowed into a NaN guidance command.
    @pytest.mark.parametrize(
        "overrides, field",
        [
            (
                {"dt": 1e10, "frame_period": 1e10, "telemetry_period": 1e10, "max_time": 1e12,
                 "gains": {"k_yaw": 1e300}},
                "gains.k_yaw * pi * dt",
            ),
            (
                {"dt": 1e10, "frame_period": 1e10, "telemetry_period": 1e10, "max_time": 1e12,
                 "gains": {"k_pitch": 1e300}},
                "gains.k_pitch * pi * dt",
            ),
            ({"dt": 10, "frame_period": 10, "max_time": 400, "gains": {"v_cruise": 1e308}},
             "gains.v_cruise * max_time"),
            ({"dt": 10, "frame_period": 10, "max_time": 400, "gains": {"v_lock": 1e308}},
             "gains.v_lock * max_time"),
            ({"pursuer": {"position": [0, -1.7e308, 10]}, "gains": {"v_cruise": 1e306}},
             "gains.v_cruise * max_time"),
        ],
        ids=["k_yaw", "k_pitch", "v_cruise", "v_lock", "v_cruise-from-far-start"],
    )
    def test_gains_that_overflow_the_flight_name_the_field(self, overrides, field):
        with pytest.raises(ScenarioError, match=re.escape(field)):
            make_scenario(overrides)

    def test_large_gains_within_the_float_range_still_run(self, tmp_path):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({
            "dt": 10, "frame_period": 10, "max_time": 400, "gains": {"v_cruise": 1e305, "k_yaw": 1e300},
            "targets": [{"id": "T1", "kind": "stationary", "p0": [50, 0, 10]}],
        }))
        assert cli.main(["run", "--scenario", str(path)]) == 0

    def test_duplicate_target_ids_rejected(self):
        with pytest.raises(ScenarioError, match="unique"):
            make_scenario(
                targets=[
                    {"id": "T1", "kind": "stationary", "p0": [10, 0, 10]},
                    {"id": "T1", "kind": "stationary", "p0": [20, 0, 10]},
                ]
            )

    def test_unknown_trajectory_kind_names_field(self):
        with pytest.raises(ScenarioError, match=r"targets\[0\].kind"):
            make_scenario(targets=[{"id": "T1", "kind": "teleporting", "p0": [0, 0, 0]}])

    def test_targets_required(self):
        with pytest.raises(ScenarioError, match="targets"):
            scenario_from_dict({"name": "x"})

    def test_bad_probability_scoped_to_vision(self):
        with pytest.raises(ScenarioError, match="vision"):
            make_scenario(vision={"p_detect": 2.0})

    def test_bad_transport_mode(self):
        with pytest.raises(ScenarioError, match="transport.mode"):
            make_scenario(transport={"mode": "carrier-pigeon"})

    def test_retired_latency_key_still_loads(self):
        scenario = make_scenario(transport={"mode": "in_process", "latency_ms": 5.0})
        assert scenario.transport.mode == "in_process"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["gains.k_yaw", "max_time", "pursuer.yaw", "telemetry_period"]
    )
    def test_non_finite_scalar_names_field(self, field, value):
        section, _, key = field.rpartition(".")
        with pytest.raises(ScenarioError, match=re.escape(field)):
            make_scenario({section: {key: value}} if section else {key: value})

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"targets": [{"id": None, "kind": "stationary", "p0": [5, 0, 1]}]}, "targets[0].id"),
            ({"uav_id": ["a"]}, "uav_id"),
            ({"name": 7}, "name"),
            ({"transport": {"mode": 1}}, "transport.mode"),
            ({"transport": {"base_url": 8080}}, "transport.base_url"),
            ({"transport": {"base_url": "http://127.0.0.1:notaport"}}, "transport.base_url"),
            ({"transport": {"base_url": "http://127.0.0.1:8080/api"}}, "transport.base_url"),
            ({"transport": {"base_url": "https://127.0.0.1:8080"}}, "transport.base_url"),
            ({"transport": {"base_url": "http://127.0.0.1:0"}}, "transport.base_url"),
            ({"pursuer": {"speed": -1.0}}, "pursuer"),
        ],
    )
    def test_bad_value_names_field(self, overrides, field):
        with pytest.raises(ScenarioError, match=re.escape(field)):
            make_scenario(overrides)

    @pytest.mark.parametrize(
        "base_url, host, port",
        [
            ("http://127.0.0.1:8080", "127.0.0.1", 8080),
            ("http://[::1]:8080/", "::1", 8080),
            ("http://localhost", "localhost", 80),
        ],
    )
    def test_base_url_gives_the_server_address(self, base_url, host, port):
        transport = make_scenario(transport={"mode": "http", "base_url": base_url}).transport
        assert (transport.host, transport.port) == (host, port)

    def test_non_finite_position_names_field(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"targets": [{"id": "T1", "kind": "stationary", "p0": [NaN, 0, 10]}]}')
        with pytest.raises(ScenarioError, match=r"targets\[0\].p0"):
            load_scenario(path)


class TestDefaults:
    def test_gains_defaults_echoed(self):
        scenario = make_scenario()
        assert scenario.gains.k_yaw == 0.8
        assert scenario.gains.v_cruise == 8.0
        assert scenario.gains.activation_radius == 10.0
        assert scenario.gains.lock_duration == 10.0

    def test_camera_defaults(self):
        import math

        scenario = make_scenario()
        assert scenario.camera.hfov == pytest.approx(math.radians(90))
        assert scenario.camera.vfov == pytest.approx(math.radians(60))
        assert scenario.frame_period == 0.1

    @pytest.mark.parametrize("key", ["hfov_deg", "vfov_deg"])
    def test_subnormal_fov_is_a_scenario_error(self, key):
        # 3e-322 degrees is 5e-324 rad, whose half-angle tangent is 0.
        with pytest.raises(ScenarioError, match=f"camera: {key[:4]} is too small"):
            make_scenario({"camera": {key: 3e-322}})

    def test_absent_sections_take_the_class_defaults(self):
        scenario = scenario_from_dict({"targets": []})
        assert scenario.gains == ControlGains()
        assert scenario.vision == VisionParams()
        assert scenario.transport == TransportConfig()

    def test_tick_helpers(self):
        scenario = make_scenario()
        assert scenario.frame_ticks == 2
        assert scenario.max_ticks == 800


class TestIntegerFieldsAndSections:
    @pytest.mark.parametrize("value", [1.5, 1.0, True, float("inf"), "1", None])
    @pytest.mark.parametrize("field", ["seed", "vision.detector_latency_frames"])
    def test_integer_field_must_be_a_json_integer(self, field, value):
        section, _, key = field.rpartition(".")
        with pytest.raises(ScenarioError, match=re.escape(field)):
            make_scenario({section: {key: value}} if section else {key: value})

    @pytest.mark.parametrize("section", ["pursuer", "camera", "vision", "gains", "transport"])
    @pytest.mark.parametrize("value", [5, [1, 2], "x", None])
    def test_section_must_be_an_object(self, section, value):
        with pytest.raises(ScenarioError, match=f"^{section} must be an object"):
            make_scenario({section: value})

    def test_integer_fields_load(self):
        scenario = make_scenario(seed=2**70, vision={"detector_latency_frames": 3})
        assert scenario.seed == 2**70 and scenario.vision.detector_latency_frames == 3


BUNDLED_DOCS = [json.loads(bundled_scenario_bytes(name)) for name in BUNDLED_SCENARIOS]
RUN_BUDGET_TICKS = 3000  # a run of the property below takes at most about 0.1 s


def member_paths(doc, prefix=()):
    """The path of every object member and array item in a JSON document, at any depth."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from member_paths(child, prefix + (key,))


def replaced(doc, path, new):
    """A copy of ``doc`` with the member at ``path`` set to ``new``."""
    if not path:
        return new
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], new)
    return copy


@st.composite
def bundled_with_one_field_replaced(draw):
    doc = draw(st.sampled_from(BUNDLED_DOCS))
    path = draw(st.sampled_from(list(member_paths(doc))))
    # Scalars get their own share: most fields take one, and few containers load.
    return replaced(doc, path, draw(json_scalars | json_values))


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenarios")


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, bundled_with_one_field_replaced()))
def test_any_document_gives_a_scenario_or_a_scenario_error(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        pass


@settings(max_examples=150, deadline=None)
@given(bundled_with_one_field_replaced())
def test_a_scenario_file_runs_to_a_strict_log_or_is_refused(scenario_dir, doc):
    """``lockon run`` exits 0 or 1, and a run it makes ends with a log of strict JSON."""
    try:
        scenario = scenario_from_dict(doc, name="scenario")
    except ScenarioError:
        scenario = None
    if scenario is not None and (
        scenario.max_ticks > RUN_BUDGET_TICKS or scenario.transport.mode != "in_process"
    ):
        return  # too long a run, or one that needs a mission server listening
    path, log = scenario_dir / "scenario.json", scenario_dir / "events.jsonl"
    path.write_text(json.dumps(doc))
    log.unlink(missing_ok=True)
    code = cli.main(["run", "--scenario", str(path), "--log", str(log)])
    assert code in (0, 1)
    if code == 0:  # the file loaded: the run reached its end entry
        entries = parse_jsonl(log.read_text(encoding="utf-8"))
        assert entries[-1]["kind"] == "end"
