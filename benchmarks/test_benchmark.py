"""Tests of the benchmark itself (run with ``python3 -m pytest benchmarks``)."""

from __future__ import annotations

import json
import math
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import checkout
import inputs
import layers
import run
import speed

BENCHMARK_JSON = checkout.ROOT / "BENCHMARK.json"


def _targets() -> dict[str, object]:
    """Identity of every attribute the tracer replaces."""
    current = {}
    for label, (module_name, path) in layers.TARGETS.items():
        owner = sys.modules[module_name]
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        current[label] = vars(owner)[attr]
    return current


def _digests(keys, build) -> list[str]:
    return [run.log_digest(run.runner.run(build(key))) for key in keys]


def test_generators_are_deterministic_per_seed():
    assert inputs.random_scenario(7) == inputs.random_scenario(7)
    assert inputs.random_scenario(7) != inputs.random_scenario(8)
    assert inputs.mission(3) == inputs.mission(3)
    assert inputs.mission(3) != inputs.mission(4)
    assert inputs.pool_order("seed_sweep", 5, 64) == inputs.pool_order("seed_sweep", 5, 64)
    assert inputs.pool_order("seed_sweep", 5, 64) != inputs.pool_order("seed_sweep", 6, 64)
    assert sorted(inputs.pool_order("target_queue", 5, 48)) == list(range(48))
    assert inputs.server_targets(2) == inputs.server_targets(2)
    assert inputs.request_mix(2, 1) == inputs.request_mix(2, 1)
    assert inputs.request_mix(2, 1) != inputs.request_mix(3, 1)


def test_request_mix_shape():
    mix = inputs.request_mix(11, 0)
    assert len(mix) == inputs.REQUESTS_PER_CLIENT
    gets = [r for r in mix if r[0] == "GET"]
    assert len(gets) == round(inputs.REQUESTS_PER_CLIENT * inputs.GET_SHARE)
    assert all(len(body) == inputs.BODY_BYTES for method, _, body in mix if method == "POST")


def test_every_target_is_found():
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()


def test_tracing_keeps_logs_and_removes_every_wrapper():
    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    keys = [0, 3, 5]  # a constant-velocity lock, an overfly timeout, an acceleration draw
    before = _targets()
    plain = _digests(keys, inputs.random_scenario)
    with layers.Tracer():
        assert _targets() != before
        traced = _digests(keys, inputs.random_scenario)
    assert _targets() == before
    assert traced == plain == [golden["seed_sweep"][str(k)] for k in keys]


def test_traced_call_counts_repeat():
    def traced_counts() -> dict[str, float]:
        with layers.Tracer() as tracer:
            _digests([1, 2], inputs.random_scenario)
            _digests([0], inputs.mission)
        metrics = layers.layer_metrics(tracer.snapshot())
        return {k: v for k, v in metrics.items() if k.endswith(".calls")}

    first = traced_counts()
    assert first == traced_counts()
    assert first["runner.run.calls"] == 3
    assert first["world.project_to_camera.calls"] > first["world.step.calls"]


def test_clock_scales_wall_time_to_reference_seconds():
    probes = iter([2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S])
    clock = speed.Clock(lambda: next(probes))
    wall, ref = clock.stop(clock.start())
    assert math.isclose(ref, wall / 3.0)  # the kernel ran at a third of the reference speed


def test_connection_reads_a_split_reply_and_follows_http10_close():
    ours, theirs = socket.socketpair()
    try:
        conn = run.Connection(0, [("GET", run.inputs.RECORDS_PATH, None)])
        conn.sock = ours
        theirs.sendall(b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n{}")
        assert conn.receive() is None
        theirs.sendall(b"{}")
        assert conn.receive() == (200, b"{}{}")
        assert conn.sock is None  # reconnects for the next request
    finally:
        ours.close()
        theirs.close()


def test_benchmark_json_lists_every_metric():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {**layers.metric_units(), **run.PER_LAYER_EXTRA}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path: Path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(checkout.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "seed_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
