"""Deterministic lockstep scheduler wiring all nodes over one bus.

The scheduler holds the tick, the time (tick * dt, recomputed each tick so
it never drifts from the tick count) and the pursuer. Per tick the order is
fixed: physics, vision (with the camera frame, when due), autonomous node,
proxy/server exchange, then bus delivery. Envelopes published during a tick
are therefore seen by other nodes on the next tick, giving the protocol a
reproducible one-tick transport delay. Runs terminate on /land (after a
short grace window so every node can shut down), at max_time, or on a crash
(altitude below ground).

A camera frame is rendered only when the vision node uses it: on a frame
tick, while its pipeline is armed (from the tick that delivers the first
/signal/process_image) and until /land. A rendered frame projects every
unconsumed target from one camera pose, with the targets' trajectory terms
read into flat rows once per run.

A run's outputs are its event log and the report built from that log;
nothing else is recorded per tick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bus as topics
from .autonomy import AutonomousNode
from .bus import Envelope, MessageBus
from .metrics import MetricsError, RunReport, summarize_run
from .payloads import CANONICAL_JSON, CrashReport, parse_json
from .proxy import HttpTransport, InProcessTransport, ProxyNode
from .scenario import Scenario
from .server import MissionStore, TargetAssignment
from .vision import VisionNode
from .world import PursuerState, camera_pose, project_to_camera, step as world_step

SHUTDOWN_GRACE_TICKS = 2


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    report: RunReport
    event_log: list[dict]

    @property
    def terminated_by(self) -> str:
        return self.report.terminated_by

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "terminated_by": self.terminated_by,
            "report": self.report.as_dict(),
        }


def event_log_to_jsonl(entries: list[dict]) -> str:
    return "".join(CANONICAL_JSON.encode(entry) + "\n" for entry in entries)


def parse_jsonl(text: str) -> list[dict]:
    """Parse each non-blank line with the strict payload parser; MetricsError if one fails.

    Lines end at "\n" only: ``str.splitlines`` would also split at U+2028 and
    other separators that JSON allows unescaped inside a string.
    """
    entries = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                entries.append(parse_json(line))
            except ValueError as exc:
                raise MetricsError(f"line {number}: {exc}") from None
    return entries


def _track_rows(targets) -> tuple[tuple, ...]:
    """One flat row per (target id, trajectory) pair: (id, p0.x, p0.y, p0.z, v0.x, ..., a.z)."""
    rows = []
    for target_id, spec in targets:
        p0, v0, a = spec.p0, spec.v0, spec.a
        rows.append((target_id, p0.x, p0.y, p0.z, v0.x, v0.y, v0.z, a.x, a.y, a.z))
    return tuple(rows)


def _camera_truth(
    pursuer: PursuerState, t: float, rows: tuple[tuple, ...], consumed: set[str], camera
) -> tuple[float, float] | None:
    """Projection of the in-frame target nearest the camera center at time ``t``.

    Positions are ``eval_trajectory``'s expression in its operation order.
    ``project_to_camera`` is called per target through this module's global,
    so a wrapper set on that attribute (the benchmark's tracer) sees each one.
    """
    pose = camera_pose(pursuer, camera)
    half_t2 = 0.5 * t * t
    best: tuple[float, float] | None = None
    best_norm = 0.0
    for target_id, px, py, pz, vx, vy, vz, ax, ay, az in rows:
        if target_id in consumed:
            continue
        uv = project_to_camera(
            pose, (px + vx * t) + ax * half_t2, (py + vy * t) + ay * half_t2,
            (pz + vz * t) + az * half_t2,
        )
        if uv is None:
            continue
        norm = uv[0] ** 2 + uv[1] ** 2
        if best is None or norm < best_norm:
            best, best_norm = uv, norm
    return best


def run(scenario: Scenario, store: MissionStore | None = None) -> RunResult:
    """Execute a scenario to completion and return its event log and report."""
    dt = scenario.dt
    events: list[dict] = [
        {
            "kind": "meta",
            "scenario": scenario.name,
            "seed": scenario.seed,
            "dt": scenario.dt,
            "frame_period": scenario.frame_period,
            "max_time": scenario.max_time,
            "lock_duration": scenario.gains.lock_duration,
            "activation_radius": scenario.gains.activation_radius,
        }
    ]
    consumed: set[str] = set()
    land_seen_tick: int | None = None

    def observer(envelope: Envelope) -> None:
        nonlocal land_seen_tick
        entry = {
            "kind": "msg",
            "tick": envelope.tick,
            "topic": envelope.topic,
            "publisher": envelope.publisher_id,
            "seq": envelope.seq,
            "payload": None,
        }
        events.append(entry)
        if envelope.payload:
            try:
                entry["payload"] = envelope.parsed()
            except ValueError:  # not strict JSON: log no payload
                entry["malformed"] = True
        payload = entry["payload"]
        if envelope.topic == topics.LOCK and isinstance(payload, dict) and "target_id" in payload:
            consumed.add(payload["target_id"])
        elif envelope.topic == topics.LAND and land_seen_tick is None:
            land_seen_tick = envelope.tick

    bus = MessageBus(observer=observer)

    if scenario.transport.mode == "http":
        # The loopback server is external in this mode; the caller seeds it.
        transport = HttpTransport(host=scenario.transport.host, port=scenario.transport.port)
    else:
        if store is None:
            store = MissionStore(
                [
                    TargetAssignment(target_id=tid, position=spec.p0)
                    for tid, spec in scenario.targets
                ]
            )
        transport = InProcessTransport(store)

    vision = VisionNode(bus, scenario.vision, random.Random(f"{scenario.seed}/vision"))
    autonomous = AutonomousNode(
        bus,
        uav_id=scenario.uav_id,
        gains=scenario.gains,
        dt=dt,
        frame_period=scenario.frame_period,
        telemetry_period=scenario.telemetry_period,
        transition_hook=lambda tick, old, new: events.append(
            {"kind": "fsm", "tick": tick, "from": old.value, "to": new.value}
        ),
    )
    proxy = ProxyNode(bus, transport)

    pursuer, time = scenario.pursuer_init, 0.0
    rows = _track_rows(scenario.targets)
    camera = scenario.camera

    def frame() -> tuple[float, float] | None:
        return _camera_truth(pursuer, time, rows, consumed, camera)

    terminated_by = "timeout"
    frame_ticks, max_ticks = scenario.frame_ticks, scenario.max_ticks

    tick = 0
    try:
        while True:
            if tick > 0:
                pursuer = world_step(pursuer, autonomous.guidance, dt)
                time = tick * dt
                if pursuer.position.z < 0.0:
                    proxy.report_crash(
                        CrashReport(uav_id=scenario.uav_id, time=time, position=pursuer.position)
                    )
                    terminated_by = "crash"
                    break

            vision.step(tick, frame if tick % frame_ticks == 0 else None)
            autonomous.step(tick, time, pursuer)
            proxy.step(tick)
            bus.deliver()

            if land_seen_tick is not None and (
                tick >= land_seen_tick + SHUTDOWN_GRACE_TICKS or tick >= max_ticks + 1
            ):
                terminated_by = "land"
                break
            if land_seen_tick is None and tick >= max_ticks:
                terminated_by = "timeout"
                break
            tick += 1
    finally:
        if isinstance(transport, HttpTransport):
            transport.close()

    events.append({"kind": "end", "terminated_by": terminated_by, "tick": tick})
    return RunResult(scenario=scenario, report=summarize_run(events), event_log=events)

