"""Shared fixtures and scenario generators for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from lockon.scenario import Scenario, scenario_from_dict


# Any JSON value, floats including NaN and infinities (json.dumps writes them
# as the NaN/Infinity tokens that json.loads accepts).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


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


@pytest.fixture(scope="session")
def property_batch():
    """200 randomized runs shared by the lock/activation/shutdown batteries."""
    from lockon.runner import run

    results = []
    for seed in range(200):
        scenario = random_scenario(seed)
        results.append(run(scenario))
    return results
