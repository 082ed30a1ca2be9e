"""Shared fixtures and scenario generators for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import random

import pytest
from hypothesis import strategies as st

from lockon.autonomy import AutonomousNode
from lockon.payloads import (
    CrashReport,
    LockReport,
    OffsetMessage,
    TelemetryRequest,
    TelemetryResponse,
)
from lockon.runner import RunResult, run
from lockon.scenario import Scenario, scenario_from_dict
from lockon.world import Vec3


# Any JSON value, floats including NaN and infinities (json.dumps writes them
# as the NaN/Infinity tokens that json.loads accepts).
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

# Nested past json's recursion limit: json.loads raises RecursionError, parse_json ValueError.
DEEP_JSON = b"[" * 100_000

SCHEMAS = [TelemetryRequest, TelemetryResponse, LockReport, OffsetMessage, CrashReport]

# Text of any category, lone surrogates included.
any_text = st.text(st.characters(categories=("Cs", "Ll", "Lo", "Cc", "So", "Nd")), max_size=6)

# Field values of each declared type: floats finite, negative zero, subnormal
# and large; non-ASCII and lone surrogate text. The loose ones add the types
# next to them: non-finite floats, and ints and bools in float fields; bools
# in int fields; ints in bool fields; and None, which only an optional field
# declares.
finite_floats = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300]),
)
loose_floats = st.one_of(
    finite_floats,
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.integers(-1, 1),
    st.integers(),
    st.booleans(),
)
DECLARED = {
    "float": finite_floats,
    "int": st.integers(0, 2**53) | st.integers(),
    "bool": st.booleans(),
    "str": st.text(max_size=6) | any_text,
    "Vec3": st.builds(Vec3, finite_floats, finite_floats, finite_floats),
}
LOOSE = {
    **DECLARED,
    "float": loose_floats,
    "int": DECLARED["int"] | st.booleans(),
    "bool": st.booleans() | st.integers(0, 1),
    "Vec3": st.builds(Vec3, loose_floats, loose_floats, loose_floats),
}


def wire_messages(schema):
    """Instances of ``schema``, or None where its own checks refuse the values.

    Half are built from DECLARED values only, half from LOOSE values or None.
    """
    def fields_from(table, none_anywhere):
        def values(f):
            kind = table[f.type.split(" ")[0]]
            return kind | st.none() if none_anywhere or f.type.endswith("| None") else kind

        return st.tuples(*map(values, dataclasses.fields(schema)))

    def build(values):
        try:
            return schema(*values)
        except (TypeError, ValueError):
            return None

    declared = fields_from(DECLARED, none_anywhere=False)
    return (declared | fields_from(LOOSE, none_anywhere=True)).map(build)


def stored_records(store) -> list[str]:
    """A store's records as ``repr`` shows them, floats and types exact, without ``received_at``."""
    records = store.query_records().body["records"]
    return [repr({k: v for k, v in record.items() if k != "received_at"}) for record in records]


def make_scenario(overrides: dict | None = None, **top_level) -> Scenario:
    """Build a small single-target scenario with optional overrides."""
    data: dict = {
        "name": "test",
        "seed": 1,
        "dt": 0.05,
        "frame_period": 0.1,
        "max_time": 40.0,
        "telemetry_period": 1.0,
        "pursuer": {"position": [0, 0, 10], "yaw": 0.0, "pitch": 0.0, "speed": 0.0},
        "targets": [
            {"id": "T1", "kind": "constant_velocity", "p0": [60, 0, 10], "v0": [5.5, 0, 0]}
        ],
        "vision": {"p_detect": 0.9, "detector_latency_frames": 1},
    }
    data.update(top_level)
    if overrides:
        data.update(overrides)
    return scenario_from_dict(data)


def random_scenario(seed: int) -> Scenario:
    """A randomized head-on engagement used by the property batteries.

    Geometry keeps the target near the pursuer's initial boresight so most
    moving-target draws can detect and lock; stationary draws reproduce the
    overfly failure. Vision parameters vary so containment streaks differ.
    """
    rng = random.Random(seed)
    kind = rng.choice(["constant_velocity", "constant_velocity", "constant_acceleration", "stationary"])
    start_range = rng.uniform(45.0, 80.0)
    target: dict = {"id": "T1", "kind": kind, "p0": [start_range, 0.0, 10.0]}
    if kind == "constant_velocity":
        target["v0"] = [rng.uniform(5.2, 6.8), 0.0, 0.0]
    elif kind == "constant_acceleration":
        target["v0"] = [rng.uniform(2.5, 4.0), 0.0, 0.0]
        target["a"] = [rng.uniform(0.1, 0.3), 0.0, 0.0]
    return scenario_from_dict(
        {
            "name": f"random-{seed}",
            "seed": seed,
            "dt": 0.05,
            "frame_period": 0.1,
            "max_time": rng.choice([35.0, 45.0]),
            "telemetry_period": 1.0,
            "pursuer": {"position": [0.0, 0.0, 10.0], "yaw": 0.0, "pitch": 0.0, "speed": 0.0},
            "targets": [target],
            "vision": {
                "p_detect": rng.choice([0.7, 0.85, 0.95, 1.0]),
                "detector_latency_frames": rng.choice([0, 1, 2]),
                "track_window": 0.35,
                "p_track_dropout": rng.choice([0.0, 0.0, 0.02, 0.05]),
            },
        }
    )


def reference_triad(yaw, pitch):
    """The camera's forward, right and down unit vectors, as 9 components, as
    the earlier per-call body computed them: forward along (yaw, pitch), right
    level, and down = forward x right."""
    cp = math.cos(pitch)
    fx, fy, fz = cp * math.cos(yaw), cp * math.sin(yaw), math.sin(pitch)
    rx, ry, rz = math.sin(yaw), -math.cos(yaw), 0.0
    dx, dy, dz = fy * rz - fz * ry, fz * rx - fx * rz, fx * ry - fy * rx
    return fx, fy, fz, rx, ry, rz, dx, dy, dz


def reference_project(pursuer, target, cam):
    """The earlier project_to_camera body, kept as the oracle: it recomputes
    the camera triad and both tangents on every call."""
    fx, fy, fz, rx, ry, rz, dx, dy, dz = reference_triad(pursuer.yaw, pursuer.pitch)
    origin = pursuer.position
    px, py, pz = target.x - origin.x, target.y - origin.y, target.z - origin.z
    f = px * fx + py * fy + pz * fz
    if f <= 0.0:
        return None
    u = ((px * rx + py * ry + pz * rz) / f) / math.tan(cam.hfov / 2.0)
    v = ((px * dx + py * dy + pz * dz) / f) / math.tan(cam.vfov / 2.0)
    if abs(u) > 1.0 or abs(v) > 1.0:
        return None
    return (u, v)


# One autonomy step seen from outside: (tick, pursuer position, reported target position).
StepSample = tuple[int, Vec3, "Vec3 | None"]


@contextlib.contextmanager
def recorded_steps():
    """Record a sample after every ``AutonomousNode.step`` call inside the block.

    The event log holds what the nodes said, not where the pursuer was; the
    activation-rule tests read that per-tick truth from this recorder, which
    wraps the step from outside and puts the original back on exit.
    """
    samples: list[StepSample] = []
    original = AutonomousNode.step

    def step(node, tick, time, pursuer):
        original(node, tick, time, pursuer)
        samples.append((tick, pursuer.position, node.ctx.target_position))

    AutonomousNode.step = step
    try:
        yield samples
    finally:
        AutonomousNode.step = original


def run_recorded(scenario: Scenario) -> tuple[RunResult, list[StepSample]]:
    with recorded_steps() as samples:
        result = run(scenario)
    return result, samples


@pytest.fixture(scope="session")
def property_batch():
    """200 randomized runs, each with its step samples, shared by the acceptance batteries."""
    return [run_recorded(random_scenario(seed)) for seed in range(200)]
