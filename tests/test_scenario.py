"""Scenario loading, validation diagnostics, and defaulting."""

import json
import re

import pytest

from lockon.autonomy import ControlGains
from lockon.scenario import ScenarioError, TransportConfig, load_scenario, scenario_from_dict
from lockon.vision import VisionParams
from lockon.world import TrajectoryKind

from conftest import make_scenario


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
        ],
        ids=["nested-200000-deep", "latin-1", "utf-16"],
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
        assert scenario.camera.frame_period == 0.1

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
