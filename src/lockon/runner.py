"""Deterministic lockstep scheduler wiring all nodes over one bus.

The scheduler holds the tick, the time (tick * dt, recomputed each tick so
it never drifts from the tick count) and the pursuer: a copy of the
scenario's start pose, which ``world.step`` updates in place, so a Scenario
runs again unchanged. Per tick the order is fixed: physics, vision (on a
frame tick), autonomous node, proxy/server exchange (when the proxy has
mail), then bus delivery (when a publish is pending). Envelopes published
during a tick are therefore seen by other nodes on the next tick, giving the
protocol a reproducible one-tick transport delay. Runs terminate on /land
(after a short grace window so every node can shut down), at max_time, or on
a crash (altitude below ground).

Skipping those steps changes no log. Vision drains its inbox before it
renders and publishes only from a frame, so mail that arrives between frames
is read, in order, by the next frame with the same effect. The proxy acts
only on mail, which reaches an inbox only in bus delivery; the scheduler
tests the bus's live inbox list for it, without a call. Vision and the
autonomous node drain their inboxes only when they hold mail, and delivery
runs only while the bus's live pending list (``MessageBus.pending``) holds a
publish: an empty ``deliver`` delivers nothing.

Physics reads ``autonomous.guidance`` at the start of the next tick. In
SEARCH and LOCK that is one command the node rewrites in place, valid until
its next ``step``.

A camera frame is rendered only when the vision node uses it: on a frame
tick, while its pipeline is armed (from the tick that delivers the first
/signal/process_image) and until /land. A rendered frame projects the live
targets from one camera pose, from flat rows read once per run; the observer
drops a target's row when its /lock is logged.

A run's outputs are its event log and the report built from that log;
nothing else is recorded per tick.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

from .autonomy import AutonomousNode
from .bus import LAND, LOCK, Envelope, MessageBus
from .metrics import RunReport, summarize_run
from .payloads import CANONICAL_JSON, WIRE_CLASSES, CrashReport
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


def _track_rows(targets) -> dict[str, tuple]:
    """One flat row per target, keyed by id in scenario order: (p0.x, p0.y, p0.z, ..., a.z)."""
    rows = {}
    for target_id, spec in targets:
        p0, v0, a = spec.p0, spec.v0, spec.a
        rows[target_id] = (p0.x, p0.y, p0.z, v0.x, v0.y, v0.z, a.x, a.y, a.z)
    return rows


def _camera_truth(
    pursuer: PursuerState, t: float, live: dict[str, tuple], camera
) -> tuple[float, float] | None:
    """Projection of the in-frame target nearest the camera center at time ``t``.

    ``live`` holds only the rows of the targets whose /lock is not yet logged.
    Positions are ``eval_trajectory``'s expression in its operation order.
    ``project_to_camera`` is called per target through this module's global,
    so a wrapper set on that attribute (the benchmark's tracer) sees each one.
    """
    pose = camera_pose(pursuer, camera)
    half_t2 = 0.5 * t * t
    best: tuple[float, float] | None = None
    best_norm = 0.0
    for px, py, pz, vx, vy, vz, ax, ay, az in live.values():
        uv = project_to_camera(
            pose, (px + vx * t) + ax * half_t2, (py + vy * t) + ay * half_t2,
            (pz + vz * t) + az * half_t2,
        )
        if uv is None:
            continue
        u, v = uv
        norm = u * u + v * v  # only orders candidates; u * u rounds correctly
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
    live = _track_rows(scenario.targets)
    land_seen_tick: int | None = None

    def observer(envelope: Envelope) -> None:
        nonlocal land_seen_tick
        payload, topic = envelope.payload, envelope.topic
        entry = {
            "kind": "msg",
            "tick": envelope.tick,
            "topic": topic,
            "publisher": envelope.publisher_id,
            "seq": envelope.seq,
            "payload": None,
        }
        events.append(entry)
        if type(payload) in WIRE_CLASSES:  # canonical: the envelope checked it
            entry["payload"] = payload = payload.to_obj()
        elif payload:
            try:
                entry["payload"] = payload = envelope.parsed()
            except ValueError:  # not strict JSON: log no payload
                entry["malformed"] = True
        if topic == LOCK and isinstance(payload, dict) and "target_id" in payload:
            live.pop(payload["target_id"], None)
        elif topic == LAND and land_seen_tick is None:
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
            {"kind": "fsm", "tick": tick, "from": old._value_, "to": new._value_}
        ),
    )
    proxy = ProxyNode(bus, transport)
    proxy_mail = bus.inbox(ProxyNode.CLIENT_ID)
    pending = bus.pending()

    pursuer, time = copy.copy(scenario.pursuer_init), 0.0
    camera = scenario.camera

    def frame() -> tuple[float, float] | None:
        return _camera_truth(pursuer, time, live, camera)

    terminated_by = "timeout"
    frame_ticks, max_ticks = scenario.frame_ticks, scenario.max_ticks

    tick = 0
    try:
        while True:
            if tick > 0:
                world_step(pursuer, autonomous.guidance, dt)
                time = tick * dt
                if pursuer.z < 0.0:
                    proxy.report_crash(
                        CrashReport(uav_id=scenario.uav_id, time=time, position=pursuer.position)
                    )
                    terminated_by = "crash"
                    break

            if tick % frame_ticks == 0:
                vision.step(tick, frame)
            autonomous.step(tick, time, pursuer)
            if proxy_mail:
                proxy.step(tick)
            if pending:
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

