"""One finiteness rule, kept in the value constructors (``world.check_finite``).

Every public class with a float or ``Vec3`` constructor field refuses NaN and
+-inf in any one of them when it is built, so no non-finite value enters a run
through the Python API; and any ``Scenario`` that builds runs to a log that
its own reader reads back into the run's report.
"""

import dataclasses
import inspect
import math
import typing

import pytest
from hypothesis import given, settings, strategies as st

import lockon
from lockon.autonomy import ControlGains
from lockon.metrics import parse_jsonl, summarize_run
from lockon.runner import event_log_to_jsonl, run
from lockon.scenario import Scenario, ScenarioError, TransportConfig, load_scenario
from lockon.server import MissionStore, TargetAssignment
from lockon.vision import VisionParams
from lockon.world import (
    CameraParams,
    PursuerState,
    TrajectoryKind,
    TrajectorySpec,
    Vec3,
    check_finite,
)

from conftest import make_scenario

NON_FINITE = [math.nan, math.inf, -math.inf]


def valid_arguments():
    """Keyword arguments that build each class, every constructor field given."""
    scenario = make_scenario()
    return {
        CameraParams: {"hfov": 1.0, "vfov": 0.8},
        ControlGains: dataclasses.asdict(ControlGains()),
        PursuerState: {"position": Vec3(1.0, -2.0, 10.0), "yaw": 0.5, "pitch": 0.1, "speed": 3.0},
        Scenario: {f.name: getattr(scenario, f.name) for f in dataclasses.fields(Scenario)},
        TargetAssignment: {"target_id": "T1", "position": Vec3(1.0, -2.0, 10.0)},
        TrajectorySpec: {
            "kind": TrajectoryKind.CONSTANT_ACCELERATION,
            "p0": Vec3(60.0, 1.0, 10.0),
            "v0": Vec3(5.5, -0.5, 0.25),
            "a": Vec3(0.2, 0.1, -0.1),
        },
        VisionParams: dataclasses.asdict(VisionParams()),
    }


def constructor_fields(cls) -> list[tuple[str, type]]:
    """(name, type) of each float or Vec3 parameter of ``cls``'s constructor."""
    hints = typing.get_type_hints(cls.__init__) or typing.get_type_hints(cls)
    return [
        (name, hints[name])
        for name in inspect.signature(cls).parameters
        if hints.get(name) in (float, Vec3)
    ]


def test_every_public_class_with_a_float_or_vec3_field_is_covered():
    classes = {
        obj for obj in (getattr(lockon, name) for name in lockon.__all__)
        if isinstance(obj, type) and obj is not Vec3 and constructor_fields(obj)
    }
    assert classes == set(valid_arguments())


CASES = [
    (cls, name, component)
    for cls in valid_arguments()
    for name, kind in constructor_fields(cls)
    for component in (("x", "y", "z") if kind is Vec3 else (None,))
]


@given(case=st.sampled_from(CASES), bad=st.sampled_from(NON_FINITE))
def test_a_non_finite_field_is_refused_at_construction(case, bad):
    cls, name, component = case
    arguments = valid_arguments()[cls]
    value = bad
    if component is not None:
        value = dataclasses.replace(arguments[name], **{component: bad})
    cls(**arguments)  # the arguments build before one field is made non-finite
    with pytest.raises(ScenarioError if cls is Scenario else ValueError):
        cls(**{**arguments, name: value})


class TestCheckFinite:
    def test_names_the_first_field_that_fails(self):
        gains = ControlGains()
        object.__setattr__(gains, "v_lock", math.nan)  # past the constructor's own check
        with pytest.raises(ValueError, match="^v_lock must be finite and > 0$"):
            check_finite(gains, "k_yaw", "v_lock", "v_cruise", positive=True)

    def test_positive_refuses_zero_and_below_and_raises_the_given_error(self):
        for dt in (0.0, -0.0, -1.0, -5e-324):
            with pytest.raises(ScenarioError, match="^dt must be finite and > 0$"):
                Scenario(**{**valid_arguments()[Scenario], "dt": dt})
        check_finite(ControlGains(camera_grace=5e-324), "camera_grace", positive=True)


class TestTheFaultsThatGotIn:
    """Each value the Python API once accepted, and what it did to a run."""

    def test_a_nan_telemetry_period(self):
        # It built, and the run sent one /telemetry in total: the due test compares with NaN.
        with pytest.raises(ScenarioError, match="telemetry_period"):
            dataclasses.replace(load_scenario("moving_target"), telemetry_period=math.nan)

    def test_a_nan_trajectory_p0(self):
        # It built, and hovering_target logged an undecodable reply on every telemetry.
        spec = load_scenario("hovering_target").targets[0][1]
        with pytest.raises(ValueError, match="p0 must be finite"):
            dataclasses.replace(spec, p0=Vec3(math.nan, spec.p0.y, spec.p0.z))

    @pytest.mark.parametrize(
        "field, value",
        [("pitch", math.nan), ("speed", math.nan), ("position", Vec3(0.0, 0.0, math.inf))],
    )
    def test_a_non_finite_pursuer(self, field, value):
        # A NaN pitch was clamped to +pi/2; a NaN speed and an infinite z built as given.
        arguments = {"position": Vec3(0.0, 0.0, 10.0), "yaw": 0.0, "pitch": 0.0, "speed": 0.0}
        with pytest.raises(ValueError, match="must be finite"):
            PursuerState(**{**arguments, field: value})

    def test_a_nan_target_assignment(self):
        # It built, and the store answered "target_position": {"x": NaN, ...}.
        with pytest.raises(ValueError, match="position must be finite"):
            MissionStore([TargetAssignment("T", Vec3(math.nan, 0.0, 0.0))])

    def test_an_infinite_track_window(self):
        with pytest.raises(ValueError, match="track_window must be finite and > 0"):
            VisionParams(track_window=math.inf)


@st.composite
def short_scenarios(draw):
    """Scenarios built through the Python API, each at most 2 s of simulated time.

    Most targets start ahead of the pursuer, so that some runs arm vision,
    take offsets and lock within the time.
    """
    dt = draw(st.floats(0.01, 0.2))
    vector = st.builds(Vec3, st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.floats(0.0, 30.0))
    small = st.floats(-3.0, 3.0)
    pursuer = PursuerState(
        draw(vector), draw(st.floats(-10.0, 10.0)), draw(st.floats(-0.5, 0.5) | st.just(0.0)),
        draw(st.floats(0.0, 10.0)),
    )
    targets = []
    for index in range(draw(st.integers(0, 3) | st.integers(1, 3))):
        kind = draw(st.sampled_from(TrajectoryKind))
        p0 = draw(vector)
        if draw(st.integers(0, 3)):  # mostly ahead
            ahead = draw(st.floats(3.0, 40.0))
            p0 = Vec3(pursuer.x + ahead * math.cos(pursuer.yaw) + draw(small),
                      pursuer.y + ahead * math.sin(pursuer.yaw) + draw(small),
                      pursuer.z + draw(small))
        v0 = a = Vec3(0.0, 0.0, 0.0)
        if kind is not TrajectoryKind.STATIONARY:
            v0 = Vec3(*(draw(st.floats(-8.0, 8.0)) for _ in range(3)))
        if kind is TrajectoryKind.CONSTANT_ACCELERATION:
            a = Vec3(*(draw(st.floats(-2.0, 2.0)) for _ in range(3)))
        targets.append((f"T{index}", TrajectorySpec(kind, p0, v0, a)))
    return Scenario(
        name="short",
        seed=draw(st.integers(0, 2**32)),
        dt=dt,
        frame_period=dt * draw(st.integers(1, 4)),
        max_time=draw(st.floats(dt, 2.0) | st.floats(1.0, 2.0)),
        telemetry_period=draw(st.floats(0.01, 3.0)),
        pursuer_init=pursuer,
        targets=tuple(targets),
        camera=CameraParams(draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))),
        vision=VisionParams(draw(st.floats(0.0, 1.0) | st.just(1.0)), draw(st.integers(0, 3)),
                            draw(st.floats(0.01, 2.0)), draw(st.floats(0.0, 1.0) | st.just(0.0))),
        gains=ControlGains(*(draw(st.floats(0.01, 20.0)) for _ in range(4)),
                           draw(st.floats(0.01, 60.0)), draw(st.floats(0.01, 1.0)),
                           draw(st.floats(0.01, 1.0))),
        transport=TransportConfig(),
        uav_id="uav-1",
    )


@settings(deadline=None)
@given(short_scenarios())
def test_any_scenario_that_builds_reads_back_into_its_report(scenario):
    result = run(scenario)
    assert summarize_run(parse_jsonl(event_log_to_jsonl(result.event_log))) == result.report
