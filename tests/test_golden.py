"""Golden event logs: the SHA-256 of each bundled scenario's JSONL log.

The hashes in ``golden_logs.json`` pin every byte of the event log for the
three bundled scenarios under their own seed and seeds 1, 2 and 3, so a
change meant to keep behaviour (an optimisation, a refactor) cannot alter a
run without failing here. Rewrite the file only for a change meant to alter
the log:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from lockon.runner import event_log_to_jsonl, run
from lockon.scenario import BUNDLED_SCENARIOS, load_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_logs.json")
EXTRA_SEEDS = (1, 2, 3)


def cases() -> list[tuple[str, int]]:
    out = []
    for name in BUNDLED_SCENARIOS:
        file_seed = load_scenario(name).seed
        out += [(name, seed) for seed in dict.fromkeys((file_seed, *EXTRA_SEEDS))]
    return out


CASES = cases()


def log_hash(name: str, seed: int) -> str:
    scenario = dataclasses.replace(load_scenario(name), seed=seed)
    return hashlib.sha256(event_log_to_jsonl(run(scenario).event_log).encode()).hexdigest()


def key(name: str, seed: int) -> str:
    return f"{name}/{seed}"


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(key(name, seed) for name, seed in CASES)


@pytest.mark.parametrize(("name", "seed"), CASES, ids=[key(*case) for case in CASES])
def test_event_log_matches_golden_hash(golden, name, seed):
    assert log_hash(name, seed) == golden[key(name, seed)]


if __name__ == "__main__":
    hashes = {key(name, seed): log_hash(name, seed) for name, seed in CASES}
    GOLDEN_PATH.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN_PATH}")
