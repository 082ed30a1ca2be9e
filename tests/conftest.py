"""Shared fixtures and scenario generators for the test suite."""

from __future__ import annotations

import contextlib
import math
import random

import pytest
from hypothesis import strategies as st

from lockon.autonomy import AutonomousNode
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

# Nested past the JSON parser's recursion limit: it raises RecursionError.
DEEP_JSON = b"[" * 100_000


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


def reference_project(pursuer, target, cam):
    """The earlier project_to_camera body, kept as the oracle: it recomputes
    the camera triad and both tangents on every call."""
    yaw, pitch = pursuer.yaw, pursuer.pitch
    cp = math.cos(pitch)
    fx, fy, fz = cp * math.cos(yaw), cp * math.sin(yaw), math.sin(pitch)
    rx, ry, rz = math.sin(yaw), -math.cos(yaw), 0.0
    dx, dy, dz = fy * rz - fz * ry, fz * rx - fx * rz, fx * ry - fy * rx
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
