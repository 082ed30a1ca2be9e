"""Seeded input generators for the lockon benchmark.

Every input a workload hands the program is a pure function of a seed, so
the same ``--seed`` always replays the same inputs:

* ``random_scenario`` is a copy of ``tests/conftest.py::random_scenario``,
  the generator behind the tier-1 200-run property batch;
* ``mission`` builds the long multi-target engagements of ``target_queue``;
* ``request_mix`` and ``server_targets`` build the traffic of
  ``server_http``.

The simulation workloads draw their engagements from fixed pools (pool key
-> scenario) whose event-log digests are committed in ``golden.json``. The
workload seed orders the pool; ``seed_sweep`` runs all of its 200 entries
(the tier-1 batch), ``target_queue`` the first 8 of its 48.
"""

from __future__ import annotations

import json
import random

import checkout  # noqa: F401  (makes ``lockon`` the checkout's own sources)
from lockon import scenario as scenario_mod
from lockon.scenario import Scenario

SWEEP_POOL = 200
QUEUE_POOL = 48
QUEUE_TARGETS = 16

CLIENTS = 2
REQUESTS_PER_CLIENT = 1000
GET_SHARE = 0.1
BODY_BYTES = 500
SERVER_TARGETS = 16
LOCKED_AT_SETUP = 8
RECORDS_PATH = "/api/records?kind=Lock"


def random_scenario(seed: int) -> Scenario:
    """A randomized head-on engagement, as in the tier-1 property batch.

    Geometry keeps the target near the pursuer's initial boresight so most
    moving-target draws can detect and lock; stationary draws (a quarter)
    reproduce the overfly failure and time out.
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
    return scenario_mod.scenario_from_dict(
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


def mission(key: int) -> Scenario:
    """A long mission: receding targets queued about 70 m apart on the boresight.

    Target speeds stay below the 6 m/s LOCK speed and the tracker never
    drops out, so every target locks; each camera frame still projects all
    unconsumed targets.
    """
    rng = random.Random(f"mission/{key}")
    targets = []
    x = 60.0
    for index in range(QUEUE_TARGETS):
        targets.append(
            {
                "id": f"T{index + 1:02d}",
                "kind": "constant_velocity",
                "p0": [x, 0.0, 10.0],
                "v0": [rng.uniform(5.2, 5.8), 0.0, 0.0],
            }
        )
        x += rng.uniform(65.0, 75.0)
    return scenario_mod.scenario_from_dict(
        {
            "name": f"queue-{key}",
            "seed": key,
            "dt": 0.05,
            "frame_period": 0.1,
            "max_time": 400.0,
            "telemetry_period": 1.0,
            "pursuer": {"position": [0.0, 0.0, 10.0], "yaw": 0.0, "pitch": 0.0, "speed": 0.0},
            "targets": targets,
            "vision": {
                "p_detect": rng.choice([0.7, 0.85, 0.95, 1.0]),
                "detector_latency_frames": rng.choice([0, 1, 2]),
                "track_window": 0.35,
                "p_track_dropout": 0.0,
            },
        }
    )


def pool_order(workload: str, seed: int, pool: int) -> list[int]:
    """The seed's permutation of a workload's pool keys."""
    return random.Random(f"{workload}/{seed}").sample(range(pool), pool)


def _vec(rng: random.Random, span: float) -> dict:
    return {axis: round(rng.uniform(-span, span), 3) for axis in "xyz"}


def server_targets(seed: int) -> list[dict]:
    """The target queue the benchmark seeds into each mission server."""
    rng = random.Random(f"server_http/{seed}/targets")
    return [
        {"id": f"Q{index + 1:02d}", "position": _vec(rng, 500.0)}
        for index in range(SERVER_TARGETS)
    ]


def lock_body(target: dict) -> bytes:
    report = {
        "uav_id": "uav-setup",
        "target_id": target["id"],
        "lock_start_tick": 0,
        "lock_end_tick": 200,
        "position": target["position"],
    }
    return json.dumps(report, separators=(",", ":")).encode()


def telemetry_body(rng: random.Random, client: int, index: int) -> bytes:
    """A telemetry POST body padded to exactly BODY_BYTES bytes."""
    body = {
        "uav_id": f"uav-{client + 1}",
        "time": round(index * 0.05, 2),
        "position": _vec(rng, 500.0),
        "state": rng.choice(["SEARCH", "LOCK"]),
        "pad": "",
    }
    overhead = len(json.dumps(body, separators=(",", ":")))
    body["pad"] = "x" * (BODY_BYTES - overhead)
    return json.dumps(body, separators=(",", ":")).encode()


def request_mix(seed: int, client: int) -> list[tuple[str, str, bytes | None]]:
    """One client's closed-loop schedule: (method, path, body) per request.

    Exactly GET_SHARE of the requests are record queries, at seeded
    positions; the rest are telemetry POSTs.
    """
    rng = random.Random(f"server_http/{seed}/client{client}")
    n_get = round(REQUESTS_PER_CLIENT * GET_SHARE)
    methods = ["GET"] * n_get + ["POST"] * (REQUESTS_PER_CLIENT - n_get)
    rng.shuffle(methods)
    return [
        ("GET", RECORDS_PATH, None)
        if method == "GET"
        else ("POST", "/api/telemetry", telemetry_body(rng, client, index))
        for index, method in enumerate(methods)
    ]
