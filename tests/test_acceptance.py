"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The randomized-run battery (criteria 2, 3 and 5) shares one
200-scenario batch via the session fixture in conftest.
"""

import dataclasses
import json
import math
import random

import pytest

from lockon.bus import Envelope, MessageBus
from lockon.cli import main as cli_main
from lockon.latency import latency_harness
from lockon.runner import event_log_to_jsonl, run
from lockon.scenario import load_scenario
from lockon.server import ApiError, MissionStore, ServerThread, TargetAssignment
from lockon.world import Vec3, distance

from conftest import make_scenario


def msgs(result, topic):
    return [e for e in result.event_log if e["kind"] == "msg" and e["topic"] == topic]


@pytest.fixture(scope="module")
def shipped_runs():
    return {
        name: run(load_scenario(name))
        for name in ("moving_target", "accelerating_target", "hovering_target")
    }


def test_criterion_1_table1_reproduction(capsys):
    """metrics --tp 150 --fp 9 --fn 14 rounds to 0.94 / 0.91 / 0.93."""
    assert cli_main(["metrics", "--tp", "150", "--fp", "9", "--fn", "14"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"precision": 0.9434, "recall": 0.9146, "f1": 0.9288}
    assert abs(out["precision"] - 0.94) <= 0.005
    assert abs(out["recall"] - 0.91) <= 0.005
    assert abs(out["f1"] - 0.93) <= 0.005
    with capsys.disabled():
        print(
            f"\nCRITERION 1 PASS: precision {out['precision']}, recall {out['recall']}, "
            f"f1 {out['f1']} round to 0.94/0.91/0.93"
        )


def test_criterion_2_lock_timing(property_batch, capsys):
    """No /lock before 10.0 s of continuous containment; tight when unbroken."""
    locks = continuous = 0
    for result, _ in property_batch:
        scenario = result.scenario
        dt, frame_ticks = scenario.dt, scenario.frame_ticks
        offset_ticks = [m["payload"]["tick"] for m in msgs(result, "/image/message")]
        for lock in msgs(result, "/lock"):
            locks += 1
            prior = [t for t in offset_ticks if t <= lock["tick"]]
            assert prior, f"{scenario.name}: lock without camera messages"
            streak_start = prior[0]
            for a, b in zip(prior, prior[1:]):
                if b - a > frame_ticks:
                    streak_start = b
            span = (lock["tick"] - streak_start) * dt
            assert span >= scenario.gains.lock_duration - 1e-9, (
                f"{scenario.name}: /lock after only {span:.2f} s of containment"
            )
            # The winning streak must hold one message per camera frame.
            streak_len = len([t for t in prior if t >= streak_start])
            needed = math.ceil(scenario.gains.lock_duration / scenario.frame_period)
            assert streak_len >= needed, (
                f"{scenario.name}: only {streak_len} gap-free camera messages"
            )
            if all(b - a <= frame_ticks for a, b in zip(prior, prior[1:])):
                continuous += 1
                assert span <= scenario.gains.lock_duration + dt + 1e-9, (
                    f"{scenario.name}: /lock {span - scenario.gains.lock_duration:.3f} s late"
                )
    assert locks >= 50, "battery produced too few locks to be meaningful"
    with capsys.disabled():
        print(
            f"\nCRITERION 2 PASS: {locks} locks across 200 runs, none early; "
            f"{continuous} continuous cases within one dt of 10.0 s"
        )


def test_criterion_3_activation_threshold(property_batch, capsys):
    """/signal/process_image fires once, at the first sub-10 m crossing."""
    signals_seen = 0
    for result, samples in property_batch:
        radius = result.scenario.gains.activation_radius
        signals = msgs(result, "/signal/process_image")
        assert len(signals) <= 1, f"{result.scenario.name}: duplicate signal"
        if not signals:
            continue
        signals_seen += 1
        signal_tick = signals[0]["tick"]
        by_tick = {tick: (pursuer, target) for tick, pursuer, target in samples}
        pursuer, target = by_tick[signal_tick]
        assert target is not None
        assert (
            distance(pursuer, target) < radius
        ), f"{result.scenario.name}: signal outside activation radius"
        for tick, pursuer, target in samples:
            if tick >= signal_tick:
                break
            if target is not None:
                assert (
                    distance(pursuer, target) >= radius
                ), f"{result.scenario.name}: crossing before signal at tick {tick}"
    assert signals_seen >= 150
    with capsys.disabled():
        print(
            f"\nCRITERION 3 PASS: {signals_seen} engagements, every signal at the "
            f"first crossing below 10 m of the reported position"
        )


def test_criterion_4_paper_finding_scenario_pair(shipped_runs, capsys):
    """Moving and accelerating targets lock; the hovering target never does."""
    for name in ("moving_target", "accelerating_target"):
        result = shipped_runs[name]
        outcome = result.report.per_target[0]
        assert result.terminated_by == "land", f"{name} did not land"
        assert outcome.locked, f"{name} failed to lock"
        assert outcome.time_to_lock >= result.scenario.gains.lock_duration
    hover = shipped_runs["hovering_target"]
    outcome = hover.report.per_target[0]
    assert hover.terminated_by == "timeout"
    assert not outcome.locked
    assert outcome.reason == "containment_never_reached"
    assert outcome.max_containment_s < hover.scenario.gains.lock_duration
    with capsys.disabled():
        print(
            f"\nCRITERION 4 PASS: moving/accelerating locked; hovering failed "
            f"(max containment {outcome.max_containment_s:.2f} s)"
        )


def test_hovering_target_is_overflown_once_and_never_seen_again(shipped_runs):
    """One LOCK, lost when the pursuer passes the target; no offset after the return to SEARCH."""
    hover = shipped_runs["hovering_target"]
    fsm = [e for e in hover.event_log if e["kind"] == "fsm"]
    assert [(e["from"], e["to"]) for e in fsm] == [
        ("BOOT", "SEARCH"), ("SEARCH", "LOCK"), ("LOCK", "SEARCH"),
    ]
    back_to_search = fsm[-1]["tick"]
    offsets = [e["tick"] for e in msgs(hover, "/image/message")]
    assert offsets and max(offsets) < back_to_search


def test_criterion_5_shutdown(property_batch, shipped_runs, capsys):
    """After /land: no envelope from any node, no request at the server."""
    landed_runs = 0
    for result in [result for result, _ in property_batch] + list(shipped_runs.values()):
        lands = msgs(result, "/land")
        if not lands:
            continue
        landed_runs += 1
        land_tick = lands[0]["tick"]
        late = [
            e
            for e in result.event_log
            if e["kind"] == "msg" and e["tick"] > land_tick
        ]
        assert late == [], f"{result.scenario.name}: envelopes after /land: {late}"
    # Server-side verification with a store we can inspect: every forwarded
    # request published a response, so equality proves the proxy went silent.
    scenario = load_scenario("moving_target")
    store = MissionStore(
        [TargetAssignment(tid, spec.p0) for tid, spec in scenario.targets]
    )
    result = run(scenario, store=store)
    assert store.record_count("Telemetry") == len(msgs(result, "/telemetry/response"))
    assert store.record_count("Lock") == len(msgs(result, "/lock"))
    assert landed_runs >= 50
    with capsys.disabled():
        print(f"\nCRITERION 5 PASS: {landed_runs} landed runs all silent after /land")


def test_criterion_6_broker_properties(capsys):
    """>= 10,000 randomized pub/sub operations keep all delivery guarantees."""
    rng = random.Random(0xB0B)
    topics = [f"/chan/{i}" for i in range(5)]
    clients = [f"client-{i}" for i in range(4)]
    publishers = [f"pub-{i}" for i in range(3)]
    bus = MessageBus()
    model_subs: dict[str, set[str]] = {c: set() for c in clients}
    expected: dict[str, list[tuple[str, int, str]]] = {c: [] for c in clients}
    received: dict[str, list[Envelope]] = {c: [] for c in clients}
    seqs = {p: 0 for p in publishers}
    operations = 15_000
    publish_count = 0
    for _ in range(operations):
        roll = rng.random()
        topic = rng.choice(topics)
        if roll < 0.2:
            client = rng.choice(clients)
            bus.subscribe(client, topic)
            model_subs[client].add(topic)
        elif roll < 0.35:
            client = rng.choice(clients)
            bus.unsubscribe(client, topic)
            model_subs[client].discard(topic)
        else:
            publisher = rng.choice(publishers)
            envelope = Envelope(
                topic=topic,
                payload=b"",
                publisher_id=publisher,
                seq=seqs[publisher],
                tick=0,
            )
            seqs[publisher] += 1
            publish_count += 1
            count = bus.publish(envelope)
            members = [c for c in clients if topic in model_subs[c]]
            assert count == len(members)
            for client in members:
                expected[client].append((topic, envelope.seq, publisher))
            bus.deliver()
            for client in clients:
                received[client].extend(bus.drain(client))
    for client in clients:
        got = [(e.topic, e.seq, e.publisher_id) for e in received[client]]
        assert got == expected[client]  # completeness + order, no leakage
        keys = [(e.publisher_id, e.seq) for e in received[client]]
        assert len(keys) == len(set(keys))  # at-most-once
        for publisher in publishers:
            series = [e.seq for e in received[client] if e.publisher_id == publisher]
            assert series == sorted(set(series))  # per-publisher FIFO
    with capsys.disabled():
        print(
            f"\nCRITERION 6 PASS: {operations} ops ({publish_count} publishes), "
            f"completeness/FIFO/at-most-once/no-leakage all hold"
        )


def test_criterion_7_determinism(capsys):
    """Same seed: byte-identical JSONL. Different seeds: different firing."""
    for name in ("moving_target", "accelerating_target", "hovering_target"):
        scenario = load_scenario(name)
        first = event_log_to_jsonl(run(scenario).event_log)
        second = event_log_to_jsonl(run(scenario).event_log)
        assert first == second, f"{name}: same-seed logs differ"
    base = make_scenario(vision={"p_detect": 0.5, "detector_latency_frames": 1})
    patterns = set()
    for seed in range(8):
        result = run(dataclasses.replace(base, seed=seed))
        patterns.add(
            tuple(m["payload"]["tick"] for m in msgs(result, "/image/message"))
        )
    assert len(patterns) > 1, "p_detect < 1 should make firing seed-dependent"
    with capsys.disabled():
        print(
            f"\nCRITERION 7 PASS: 3 scenarios byte-identical on reruns; "
            f"{len(patterns)} distinct firing patterns over 8 seeds"
        )


def test_criterion_8_latency_harness(capsys):
    """Loopback p50 for 500-byte telemetry bodies stays at or under 95 ms."""
    store = MissionStore([TargetAssignment("T1", Vec3(60, 0, 10))])
    with ServerThread(store) as server:
        report = latency_harness(port=server.port, payload_bytes=500, n_requests=1000)
    assert report["payload_bytes"] == 500
    assert report["p50_ms"] <= 95.0, f"p50 {report['p50_ms']:.2f} ms exceeds the bound"
    with capsys.disabled():
        print(
            f"\nCRITERION 8 PASS: p50 {report['p50_ms']:.2f} ms, "
            f"p95 {report['p95_ms']:.2f} ms, mean {report['mean_ms']:.2f} ms "
            f"over {report['count']} requests (bound 95 ms)"
        )


def test_criterion_9_server_conservation(capsys):
    """locks + queue == seeded targets and record ids stay gap-free."""
    rng = random.Random(0x5EED)
    trials = 40
    checks = 0
    for _ in range(trials):
        n = rng.randint(1, 8)
        store = MissionStore(
            [TargetAssignment(f"T{i}", Vec3(50.0 + i, 0.0, 10.0)) for i in range(n)]
        )
        ids = [f"T{i}" for i in range(n)] + ["T-bogus"]
        for _ in range(rng.randint(20, 80)):
            roll = rng.random()
            body: bytes
            try:
                if roll < 0.4:
                    body = json.dumps(
                        {
                            "uav_id": "uav-1",
                            "time": rng.random(),
                            "position": {"x": 0, "y": 0, "z": 10},
                            "state": "SEARCH",
                        }
                    ).encode()
                    store.handle_telemetry(body)
                elif roll < 0.8:
                    body = json.dumps(
                        {
                            "uav_id": "uav-1",
                            "target_id": rng.choice(ids),
                            "lock_start_tick": 0,
                            "lock_end_tick": 200,
                            "position": {"x": 0, "y": 0, "z": 10},
                        }
                    ).encode()
                    store.handle_lock_report(body)
                else:
                    body = json.dumps(
                        {"uav_id": "uav-1", "time": 1.0, "position": [0, 0, -1]}
                    ).encode()
                    store.handle_crash_report(body)
            except ApiError:
                pass
            assert store.record_count("Lock") + store.queue_length() == n
            checks += 1
        records = store.query_records().body["records"]
        assert [r["record_id"] for r in records] == list(range(1, len(records) + 1))
    with capsys.disabled():
        print(
            f"\nCRITERION 9 PASS: conservation held through {checks} interleaved "
            f"requests across {trials} seeded queues"
        )
