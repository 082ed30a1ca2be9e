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

Every one of those runs has a frame every 2 ticks. ``FRAME_GAP_LOGS`` pins
the log digests of the three bundled scenarios at a frame period of 1, 3, 4
and 5 ticks, seeds 1-3, so a /signal/process_image or /land that reaches
vision between two frames is pinned too. ``TIME_STEP_LOGS`` pins the same
scenarios at a dt of 0.1 and 0.02 s with the frame period kept at 0.1 s,
seeds 1-3: there the containment timer sums 0.1 or 0.02 per tick, and the
10 s lock is reached only through the timer's epsilon, which dt 0.05 never
needs. Those digests are written in this file; the same command prints them.
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
FRAME_GAP_TICKS = (1, 3, 4, 5)
FRAME_GAP_LOGS = {
    "accelerating_target/1dt/1": "17ae41b190c48e96873fadb0841153695435a1c5aef048ebe4b3b0a781817dcb",
    "accelerating_target/1dt/2": "e3532a6b1d46c58486187bee0f6b97f3133a2ffd69ab65487f54d03e179483db",
    "accelerating_target/1dt/3": "79d8fcaf733980398f693f9ef6a9b00b9bf0b48a72ead4e15817503859954740",
    "accelerating_target/3dt/1": "84cf2108aab20fd2beb7dbcf2ef187f4ecb51d57f6c1a2d35149b85a8fbbbc73",
    "accelerating_target/3dt/2": "51426844cf2fc2bbd335ee203009a6e74bbe2204d9a1d790b032606862a95135",
    "accelerating_target/3dt/3": "416e0af948ae1e3e3a06149acd0c7ec5d90a1b064284ef286779a623ce9c7759",
    "accelerating_target/4dt/1": "65cb2a2a9a9bf3f5e1fcf4896023207bee73fe965b29ae33539f2a4d48d926dc",
    "accelerating_target/4dt/2": "023ff808d02b61e23fef9fa784c1fe8f8ffb0af406d5b685d1c156b7818311cb",
    "accelerating_target/4dt/3": "64867368e8301bb8f4dd6883b444fa3c165a9adb166313083332a29b8a6c8ee1",
    "accelerating_target/5dt/1": "fc4853222ecce3466f87c93d201a09003bb3b20ea5a8382137912400ebf59c08",
    "accelerating_target/5dt/2": "2854004f3015a5f01ee08d8287ee23ce1f9f7825fade872cd08618b2ed8ddd0a",
    "accelerating_target/5dt/3": "99b4ace712f30c98d983991b8be66e6ffa1a3aba5a2d788fbfb04194c0449d36",
    "hovering_target/1dt/1": "7f76c600d53d063d90cc26dde95f0653b0ff4c8dbf361f595a26bf0332a165f4",
    "hovering_target/1dt/2": "ae7c139e55bed7142a7b97db72a76457f4f500686979d07640c88955f42947ec",
    "hovering_target/1dt/3": "0913dc1b77826f8679bbf8bc396984c7dc89965723be9066cccf1b853e669143",
    "hovering_target/3dt/1": "e4c0eb67703edf8ebdb7fe1767d45aac3a8114ac92b2cccc79d9f57ff780727f",
    "hovering_target/3dt/2": "5267097ab9f18d2e18d551ee9c6fc5c50268dd09e918c4475c312f9b21042437",
    "hovering_target/3dt/3": "78a72fe2293e69206ceaa281885212972bd13aa8e9c874f3afe79048880fefdc",
    "hovering_target/4dt/1": "71fe375e97fb84b1fc3d4a3902e7e446c4fb5bb5d89d349b9112a655434485a1",
    "hovering_target/4dt/2": "da656213e56ee594560634431d92608c071c6bf30db42e4406c24cf4381aaa48",
    "hovering_target/4dt/3": "b71c130cfa41d9f60146df37d3ed8260bc7ed02431bebbe28b22e6ac46422530",
    "hovering_target/5dt/1": "6f4754953c701feced87d37d2b742d02f3ef0c9a1acf30cfdca222ad0c22883a",
    "hovering_target/5dt/2": "97ab1678cd0b5b6010ef6cf1eaade9809bca4d3fc2d1056509e96e64136df10b",
    "hovering_target/5dt/3": "bd73f5af19052cd5e74b315d12f6a208ca81c905cbbace39b9d8a5dcb225d5cb",
    "moving_target/1dt/1": "0a337a32c7a37140b14c11adc2e25489ee4ed0a030def9c3fca2c9c572d530ef",
    "moving_target/1dt/2": "78a4d4487662d3c03aef8554c85c65d6c7c9a327e4d960d879633be654e7158e",
    "moving_target/1dt/3": "d763eccc830d999d687b47620399360faf1d1473bf8bb916f6dce17b47bdc2a0",
    "moving_target/3dt/1": "513c01d0d3ce7d97e6e09f37f9857a551005862999fbe6ce45ad1a1fc163c7dc",
    "moving_target/3dt/2": "76f3a741d2c337db36b71aef89156c364ca4070eb67a39a6b06071cabd3405de",
    "moving_target/3dt/3": "951aac16db69fff347b7740e15fd2a4f25a5f4de63dbef55dfa9eaf73950387a",
    "moving_target/4dt/1": "0c7d1a7ec8fab59f81632b4ad22b39c26d637cd9173687e0cc878b09495d100b",
    "moving_target/4dt/2": "a377ff59942d95249cb566423061c119e42920da6c55833c92972f0c7b2868ad",
    "moving_target/4dt/3": "d8d530033caa5891d8aa401d429c7c838a33497a7fd78d2cd5754e0651d31dc3",
    "moving_target/5dt/1": "8af4f0c7ef8ae92f5efc974abaf6f970e26e25ae7299b0e9003e220c6dd6aa5a",
    "moving_target/5dt/2": "14e6693ea21370269d9912033f2ab7d7c51dd9fec21db4130566da84cb23468c",
    "moving_target/5dt/3": "1434f940ce0634be8ed927bcb81daf749ac226465d8f4706c7179cf639caa30c",
}
TIME_STEPS = (0.1, 0.02)
TIME_STEP_LOGS = {
    "accelerating_target/dt0.02/1": "ffa7e63ceee02ffeb8734bf540f0c96f21aabbd5745798fecf9577e2f9fca771",
    "accelerating_target/dt0.02/2": "f9a54698c554cdd3608c8345c70481ba282d5a250154cb9f246071e56c36ef6c",
    "accelerating_target/dt0.02/3": "639af079275967e09e8a3a3fc552008b9a17c914a2d6aa512a14fe5067d182ac",
    "accelerating_target/dt0.1/1": "30727dade29c521070b1501ea16ffef138ee3ea6541b5ac2cb310c2fc55bbbdb",
    "accelerating_target/dt0.1/2": "4f680525cc1e1071f869e432389bdebf9062c9ae979ccbec2175481a42a63dac",
    "accelerating_target/dt0.1/3": "51594aa105de25f00b4030628ac2574f9ddbc6ab180595c5c8fe886180b034f4",
    "hovering_target/dt0.02/1": "cbd8ad9ad194f3962528f3f65c8ed8476e70efaecd5f8d274a19cd7c161911c9",
    "hovering_target/dt0.02/2": "a62a03756de252a75c9a287f332ba28b229b367bd8c1e13f9bc86dce54ecdd5a",
    "hovering_target/dt0.02/3": "785172eedf084755c3691f2fc533fe5806d856bcb40a8b3227860c56909ce7b3",
    "hovering_target/dt0.1/1": "f1db61554fe331784150681ed185d88f3ec15b7243f4861ac29de7dc33de29be",
    "hovering_target/dt0.1/2": "a3249368b46b17f8c112fb96bba26417a5652d531022c5d32191c6edc907a973",
    "hovering_target/dt0.1/3": "485345bdf69e0cc5de69c473bac701326f764d3d212439774105abb411a115ca",
    "moving_target/dt0.02/1": "b8267222f16d7dbcf66cc07212b9b3500bf8f6206c716b0c03e4d6f4ce0d9fdb",
    "moving_target/dt0.02/2": "2b0d1124808cde9497c2a9d3d6d9d0bdfe1e79b7349875bdcf051148759b92a5",
    "moving_target/dt0.02/3": "0960a0dd988ac7b4a3560f6c7db4bc099791918cb849d8dd066cb05a32037e47",
    "moving_target/dt0.1/1": "883de49185e497a2fc1ad130793a91fa31af7abf2d86e7f213f1be7951fa5093",
    "moving_target/dt0.1/2": "c330efee4ab539d063e8dc48fba66186a72e89e501b6f6c0f2517029ecc2daa5",
    "moving_target/dt0.1/3": "8b77559b66da40fad195b59c3d3b3f3c4b1e9dd507d9e223fa85bc168407a9c1",
}


def cases() -> list[tuple[str, int]]:
    out = []
    for name in BUNDLED_SCENARIOS:
        file_seed = load_scenario(name).seed
        out += [(name, seed) for seed in dict.fromkeys((file_seed, *EXTRA_SEEDS))]
    return out


CASES = cases()
FRAME_GAP_CASES = [
    (name, ticks, seed)
    for name in BUNDLED_SCENARIOS
    for ticks in FRAME_GAP_TICKS
    for seed in EXTRA_SEEDS
]
TIME_STEP_CASES = [
    (name, dt, seed) for name in BUNDLED_SCENARIOS for dt in TIME_STEPS for seed in EXTRA_SEEDS
]


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


@functools.cache
def frame_gap_run(name: str, ticks: int, seed: int) -> RunResult:
    scenario = load_scenario(name)
    return run(dataclasses.replace(scenario, seed=seed, frame_period=ticks * scenario.dt))


def frame_gap_key(name: str, ticks: int, seed: int) -> str:
    return f"{name}/{ticks}dt/{seed}"


@functools.cache
def time_step_run(name: str, dt: float, seed: int) -> RunResult:
    return run(dataclasses.replace(load_scenario(name), seed=seed, dt=dt, frame_period=0.1))


def time_step_key(name: str, dt: float, seed: int) -> str:
    return f"{name}/dt{dt}/{seed}"


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


@pytest.mark.parametrize(
    ("name", "ticks", "seed"), FRAME_GAP_CASES, ids=[frame_gap_key(*case) for case in FRAME_GAP_CASES]
)
def test_frame_gap_log_matches_pinned_hash(name, ticks, seed):
    assert log_hash(frame_gap_run(name, ticks, seed)) == FRAME_GAP_LOGS[frame_gap_key(name, ticks, seed)]


def test_frame_gap_cases_reach_vision_between_frames():
    """Some pinned run delivers a /signal/process_image and a /land that vision
    reads on a tick with no frame: a message delivered on tick t is read on t + 1."""
    assert sorted(FRAME_GAP_LOGS) == sorted(frame_gap_key(*case) for case in FRAME_GAP_CASES)
    between = set()
    for name, ticks, seed in FRAME_GAP_CASES:
        for entry in frame_gap_run(name, ticks, seed).event_log:
            if entry["kind"] == "msg" and (entry["tick"] + 1) % ticks != 0:
                between.add(entry["topic"])
    assert {"/signal/process_image", "/land"} <= between


@pytest.mark.parametrize(
    ("name", "dt", "seed"), TIME_STEP_CASES, ids=[time_step_key(*case) for case in TIME_STEP_CASES]
)
def test_time_step_log_matches_pinned_hash(name, dt, seed):
    assert log_hash(time_step_run(name, dt, seed)) == TIME_STEP_LOGS[time_step_key(name, dt, seed)]


@pytest.mark.parametrize("dt", TIME_STEPS)
@pytest.mark.parametrize("name", ["moving_target", "accelerating_target"])
def test_time_step_runs_lock_at_10_20_s(name, dt):
    """The timer sums dt from the first offset: 100 steps of 0.1 sum to
    9.99999999999998 and 500 steps of 0.02 to 9.999999999999876, so without
    the timer's epsilon the lock would slip a tick."""
    assert sorted(TIME_STEP_LOGS) == sorted(time_step_key(*case) for case in TIME_STEP_CASES)
    for seed in EXTRA_SEEDS:
        (outcome,) = time_step_run(name, dt, seed).report.per_target
        assert outcome.time_to_lock == pytest.approx(10.20, abs=1e-9)


if __name__ == "__main__":
    results = {key(name, seed): golden_run(name, seed) for name, seed in CASES}
    for path, digest, extra in (
        (GOLDEN_PATH, log_hash, {}),
        (REPORTS_PATH, report_hash, {QUEUE_KEY: run(queue_scenario())}),
    ):
        hashes = {name: digest(result) for name, result in {**results, **extra}.items()}
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(hashes)} hashes to {path}")
    frame_gap = {frame_gap_key(*case): log_hash(frame_gap_run(*case)) for case in FRAME_GAP_CASES}
    print("FRAME_GAP_LOGS =", json.dumps(frame_gap, indent=4, sort_keys=True))
    time_step = {time_step_key(*case): log_hash(time_step_run(*case)) for case in TIME_STEP_CASES}
    print("TIME_STEP_LOGS =", json.dumps(time_step, indent=4, sort_keys=True))
