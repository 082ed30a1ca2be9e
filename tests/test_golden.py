"""Golden runs: the SHA-256 of each pinned run's JSONL log and of its report.

The hashes in ``golden_logs.json`` pin every byte of the event log for the
three bundled scenarios under their own seed and seeds 1, 2 and 3, so a
change meant to keep behaviour (an optimisation, a refactor) cannot alter a
run without failing here. ``golden_reports.json`` pins
``json.dumps(report.as_dict(), sort_keys=True)`` for the same twelve runs
and for a four-target queue, so a change to how the report is read from the
log cannot alter it either. Rewrite both files only for a change meant to
alter the log or the report:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from conftest import make_scenario
from lockon.runner import RunResult, event_log_to_jsonl, run
from lockon.scenario import BUNDLED_SCENARIOS, Scenario, load_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_logs.json")
REPORTS_PATH = Path(__file__).with_name("golden_reports.json")
EXTRA_SEEDS = (1, 2, 3)
QUEUE_KEY = "queue"


def cases() -> list[tuple[str, int]]:
    out = []
    for name in BUNDLED_SCENARIOS:
        file_seed = load_scenario(name).seed
        out += [(name, seed) for seed in dict.fromkeys((file_seed, *EXTRA_SEEDS))]
    return out


CASES = cases()


def queue_scenario() -> Scenario:
    """Four targets in a row: three lock, then a hovering one never reaches containment.

    Track dropouts break the containment streaks, and the mission times out
    on the last target.
    """
    return make_scenario(
        max_time=150.0,
        targets=[
            {"id": "T1", "kind": "constant_velocity", "p0": [60, 0, 10], "v0": [5.5, 0, 0]},
            {"id": "T2", "kind": "constant_acceleration", "p0": [140, 0, 10],
             "v0": [3.0, 0, 0], "a": [0.05, 0, 0]},
            {"id": "T3", "kind": "constant_velocity", "p0": [230, 0, 10], "v0": [5.5, 0, 0]},
            {"id": "T4", "kind": "stationary", "p0": [300, 0, 10]},
        ],
        vision={"p_detect": 0.9, "detector_latency_frames": 1, "p_track_dropout": 0.02},
    )


@functools.cache
def golden_run(name: str, seed: int) -> RunResult:
    return run(dataclasses.replace(load_scenario(name), seed=seed))


def log_hash(result: RunResult) -> str:
    return hashlib.sha256(event_log_to_jsonl(result.event_log).encode()).hexdigest()


def report_hash(result: RunResult) -> str:
    text = json.dumps(result.report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def key(name: str, seed: int) -> str:
    return f"{name}/{seed}"


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_reports() -> dict[str, str]:
    return json.loads(REPORTS_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(key(name, seed) for name, seed in CASES)


def test_golden_reports_cover_every_case(golden_reports):
    assert sorted(golden_reports) == sorted([QUEUE_KEY] + [key(*case) for case in CASES])


@pytest.mark.parametrize(("name", "seed"), CASES, ids=[key(*case) for case in CASES])
def test_event_log_matches_golden_hash(golden, name, seed):
    assert log_hash(golden_run(name, seed)) == golden[key(name, seed)]


@pytest.mark.parametrize(("name", "seed"), CASES, ids=[key(*case) for case in CASES])
def test_report_matches_golden_hash(golden_reports, name, seed):
    assert report_hash(golden_run(name, seed)) == golden_reports[key(name, seed)]


def test_queue_report_matches_golden_hash(golden_reports):
    result = run(queue_scenario())
    outcomes = result.report.per_target
    assert len(outcomes) == 4 and sum(outcome.locked for outcome in outcomes) == 3
    assert report_hash(result) == golden_reports[QUEUE_KEY]


if __name__ == "__main__":
    results = {key(name, seed): golden_run(name, seed) for name, seed in CASES}
    for path, digest, extra in (
        (GOLDEN_PATH, log_hash, {}),
        (REPORTS_PATH, report_hash, {QUEUE_KEY: run(queue_scenario())}),
    ):
        hashes = {name: digest(result) for name, result in {**results, **extra}.items()}
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(hashes)} hashes to {path}")
