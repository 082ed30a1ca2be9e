"""Mission state machine and guidance laws for the autonomous node.

Lifecycle: BOOT -> SEARCH -> (LOCK <-> SEARCH)* -> LANDING -> LANDED. In
SEARCH the node flies toward the server-assigned target position and, once
closer than the activation radius, arms the vision pipeline exactly once per
target. Camera offsets switch it to LOCK, where yaw/pitch commands center
the target and a containment timer runs; after lock_duration of continuous
camera data it reports the lock and moves to the next target, or lands when
none remain.

LOCK deliberately flies at a constant forward speed: the camera supplies no
range or closure information, which is exactly why a hovering target gets
overflown and lost while a receding one stays in frame.

``handle_event`` is the transition function over (state, context, event).
Its events are the decoded wire messages (``TelemetryResponse``,
``OffsetMessage``) and the conditions the node senses each tick; it updates
the context in place and returns the new state with the actions to run.
``AutonomousNode`` owns that context, sets its tick, time and pose each tick,
advances the containment timer, and talks to the bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from . import bus as topics
from .bus import MessageBus, Publisher
from .payloads import (
    DecodeError,
    LockReport,
    Message,
    OffsetMessage,
    TelemetryRequest,
    TelemetryResponse,
)
from .world import GuidanceCommand, PursuerState, Vec3, distance, value, wrap_angle


class StateMachineError(Exception):
    """An event arrived that is illegal in the current mission state."""


class MissionState(Enum):
    BOOT = "BOOT"
    SEARCH = "SEARCH"
    LOCK = "LOCK"
    LANDING = "LANDING"
    LANDED = "LANDED"


@dataclass(frozen=True)
class ControlGains:
    k_yaw: float = 0.8
    k_pitch: float = 0.8
    v_cruise: float = 8.0
    v_lock: float = 6.0
    activation_radius: float = 10.0
    lock_duration: float = 10.0
    camera_grace: float = 0.5

    def __post_init__(self) -> None:
        if self.activation_radius <= 0.0:
            raise ValueError("activation_radius must be > 0")
        if self.lock_duration <= 0.0:
            raise ValueError("lock_duration must be > 0")
        for name in ("k_yaw", "k_pitch", "v_cruise", "v_lock", "camera_grace"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass(slots=True)
class MissionContext:
    """The node's knowledge: own pose plus engagement bookkeeping."""

    uav_id: str
    tick: int = 0
    time: float = 0.0
    pursuer: PursuerState | None = None
    current_target: str | None = None
    target_position: Vec3 | None = None
    remaining_targets: int = 0
    lock_timer: float = 0.0
    lock_start_tick: int | None = None
    last_camera_tick: int | None = None
    signal_sent_for_current: bool = False


# Events. Besides the decoded TelemetryResponse and OffsetMessage, these are
# sensed internally by the node each tick.
@value
class DistanceBelowThreshold:
    pass


@value
class CameraStale:
    pass


@value
class LockTimerElapsed:
    pass


@value
class NoMoreTargets:
    pass


Event = Union[
    TelemetryResponse,
    DistanceBelowThreshold,
    OffsetMessage,
    CameraStale,
    LockTimerElapsed,
    NoMoreTargets,
]


@value
class PublishAction:
    topic: str
    payload: bytes | Message


@value
class SetGuidance:
    command: GuidanceCommand


Action = Union[PublishAction, SetGuidance]

_TIMER_EPS = 1e-9


def search_guidance(pursuer: PursuerState, target: Vec3, gains: ControlGains) -> GuidanceCommand:
    """Proportional heading control toward the line of sight, at cruise speed.

    Yaw and pitch rates are proportional to the wrapped angular error between
    the current attitude and the LOS to the target. Coincident positions
    degenerate to a zero-rate command.
    """
    origin = pursuer.position
    rx, ry, rz = target.x - origin.x, target.y - origin.y, target.z - origin.z
    if math.sqrt(rx * rx + ry * ry + rz * rz) < 1e-6:
        return GuidanceCommand(0.0, 0.0, gains.v_cruise)
    los_yaw = math.atan2(ry, rx)
    los_pitch = math.atan2(rz, math.hypot(rx, ry))
    yaw_err = wrap_angle(los_yaw - pursuer.yaw)
    pitch_err = los_pitch - pursuer.pitch
    return GuidanceCommand(
        yaw_rate=gains.k_yaw * yaw_err,
        pitch_rate=gains.k_pitch * pitch_err,
        speed=gains.v_cruise,
    )


def lock_guidance(offset: OffsetMessage, gains: ControlGains) -> GuidanceCommand:
    """Visual-servoing command that centers the camera offset.

    Rates are proportional to the offset magnitudes and steer toward the
    target: a positive x (target right of center) demands a clockwise
    (negative) yaw rate in this CCW-positive frame, a positive y (target
    below center) a nose-down pitch rate. Forward speed is the constant
    v_lock; no range information exists in the offset, so there is no
    closure control.
    """
    if abs(offset.x) > 1.0 or abs(offset.y) > 1.0:
        raise ValueError("offset components must lie in [-1, 1]")
    return GuidanceCommand(
        yaw_rate=-gains.k_yaw * offset.x,
        pitch_rate=-gains.k_pitch * offset.y,
        speed=gains.v_lock,
    )


def advance_lock_timer(
    ctx: MissionContext, contained: bool, dt: float, gains: ControlGains
) -> bool:
    """Advance ctx's containment timer one tick in place; True on lock.

    Containment accumulates dt; any break resets the timer to zero and
    restarts the streak at the current tick. Lock is achieved once the
    accumulated continuous containment reaches lock_duration.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if contained:
        ctx.lock_timer += dt
        return ctx.lock_timer >= gains.lock_duration - _TIMER_EPS
    ctx.lock_timer = 0.0
    ctx.lock_start_tick = ctx.tick
    return False


def _telemetry_request(ctx: MissionContext, state: MissionState) -> TelemetryRequest:
    assert ctx.pursuer is not None
    return TelemetryRequest(
        uav_id=ctx.uav_id, time=ctx.time, position=ctx.pursuer.position, state=state.value
    )


def handle_event(
    state: MissionState, ctx: MissionContext, event: Event, gains: ControlGains
) -> tuple[MissionState, list[Action]]:
    """Mission transition: updates ctx in place, deterministic action order."""
    if state is MissionState.LANDED:
        raise StateMachineError("no events are accepted after landing")
    if state is MissionState.LANDING:
        # Mission is over; late envelopes are dropped.
        return state, []

    if state is MissionState.SEARCH:
        if isinstance(event, TelemetryResponse) and event.has_target:
            assert ctx.pursuer is not None
            command = search_guidance(ctx.pursuer, event.target_position, gains)
            if event.target_id != ctx.current_target:
                ctx.current_target = event.target_id
                ctx.signal_sent_for_current = False
                ctx.last_camera_tick = None
            ctx.target_position = event.target_position
            ctx.remaining_targets = event.remaining_targets
            return state, [SetGuidance(command)]
        if isinstance(event, DistanceBelowThreshold):
            if ctx.signal_sent_for_current or ctx.current_target is None:
                return state, []
            ctx.signal_sent_for_current = True
            return state, [PublishAction(topics.SIGNAL_PROCESS_IMAGE, b"")]
        if isinstance(event, OffsetMessage):
            if not ctx.signal_sent_for_current:
                # Stale offset from a previous engagement; vision has not
                # been re-armed for this target yet.
                return state, []
            ctx.lock_timer = 0.0
            ctx.lock_start_tick = ctx.last_camera_tick = event.tick
            return MissionState.LOCK, [SetGuidance(lock_guidance(event, gains))]
        if isinstance(event, (TelemetryResponse, NoMoreTargets)):
            # No target is left: the server sent none, or the last was locked.
            ctx.current_target = ctx.target_position = ctx.lock_start_tick = None
            ctx.lock_timer = 0.0
            return MissionState.LANDING, [PublishAction(topics.LAND, b"")]
        raise StateMachineError(f"{type(event).__name__} is illegal in SEARCH")

    if state is MissionState.LOCK:
        if isinstance(event, OffsetMessage):
            ctx.last_camera_tick = event.tick
            return state, [SetGuidance(lock_guidance(event, gains))]
        if isinstance(event, CameraStale):
            ctx.lock_timer = 0.0
            ctx.lock_start_tick = None
            return MissionState.SEARCH, []
        if isinstance(event, LockTimerElapsed):
            assert ctx.current_target is not None and ctx.pursuer is not None
            assert ctx.lock_start_tick is not None
            report = LockReport(
                uav_id=ctx.uav_id,
                target_id=ctx.current_target,
                lock_start_tick=ctx.lock_start_tick,
                lock_end_tick=ctx.tick,
                position=ctx.pursuer.position,
            )
            ctx.current_target = ctx.target_position = None
            ctx.lock_start_tick = ctx.last_camera_tick = None
            ctx.remaining_targets = max(0, ctx.remaining_targets - 1)
            ctx.lock_timer = 0.0
            ctx.signal_sent_for_current = False
            actions: list[Action] = [PublishAction(topics.LOCK, report)]
            if ctx.remaining_targets > 0:
                actions.append(
                    PublishAction(topics.TELEMETRY, _telemetry_request(ctx, MissionState.SEARCH))
                )
            return MissionState.SEARCH, actions
        if isinstance(event, TelemetryResponse):
            # In-flight periodic response; refresh bookkeeping, no transition.
            # One without a target never matches: a lock always has one.
            if event.target_id == ctx.current_target:
                ctx.target_position = event.target_position
                ctx.remaining_targets = event.remaining_targets
            return state, []
        raise StateMachineError(f"{type(event).__name__} is illegal in LOCK")

    raise StateMachineError(f"no events are accepted in {state.value}")


class AutonomousNode:
    """Owns the live state machine and drives it from bus envelopes + ticks."""

    CLIENT_ID = "autonomous"

    def __init__(
        self,
        bus: MessageBus,
        uav_id: str,
        gains: ControlGains,
        dt: float,
        frame_period: float,
        telemetry_period: float,
        transition_hook: Callable[[int, MissionState, MissionState], None] | None = None,
    ) -> None:
        self.state = MissionState.BOOT
        self.ctx = MissionContext(uav_id=uav_id)
        self.gains = gains
        self.dt = dt
        self.telemetry_period = telemetry_period
        self.guidance = GuidanceCommand()
        self._frame_gap_ticks = max(1, round(frame_period / dt))
        self._grace_ticks = max(1, round(gains.camera_grace / dt))
        self._last_telemetry_time: float | None = None
        self._publisher = Publisher(bus, self.CLIENT_ID)
        self._bus = bus
        self._transition_hook = transition_hook
        bus.subscribe(self.CLIENT_ID, topics.TELEMETRY_RESPONSE)
        bus.subscribe(self.CLIENT_ID, topics.IMAGE_MESSAGE)
        bus.subscribe(self.CLIENT_ID, topics.LAND)

    def _execute(self, action: Action) -> None:
        if isinstance(action, PublishAction):
            self._publisher.send(action.topic, action.payload, self.ctx.tick)
            if action.topic == topics.TELEMETRY:
                self._last_telemetry_time = self.ctx.time
        else:
            self.guidance = action.command

    def _enter(self, new_state: MissionState) -> None:
        old, self.state = self.state, new_state
        if self._transition_hook is not None:
            self._transition_hook(self.ctx.tick, old, new_state)

    def _dispatch(self, event: Event) -> None:
        new_state, actions = handle_event(self.state, self.ctx, event, self.gains)
        if new_state is not self.state:
            self._enter(new_state)
        for action in actions:
            self._execute(action)

    def _process_inbox(self) -> None:
        # Dispatch one envelope at a time so each is interpreted against the
        # state left behind by the previous one.
        for envelope in self._bus.drain(self.CLIENT_ID):
            try:
                if envelope.topic == topics.TELEMETRY_RESPONSE:
                    self._dispatch(TelemetryResponse.from_envelope(envelope))
                elif envelope.topic == topics.IMAGE_MESSAGE:
                    offset = OffsetMessage.from_envelope(envelope)
                    # A frame stamped after this tick cannot have been taken
                    # yet; acting on it would start a lock after it ends.
                    if offset.tick <= self.ctx.tick:
                        self._dispatch(offset)
            except DecodeError:
                continue  # a malformed envelope must not take the node down

    def step(self, tick: int, time: float, pursuer: PursuerState) -> None:
        self.ctx.tick, self.ctx.time, self.ctx.pursuer = tick, time, pursuer

        if self.state is MissionState.BOOT:
            # Single boot tick: internal structures are up, announce and search.
            self._enter(MissionState.SEARCH)
            self._publisher.send(topics.TELEMETRY, _telemetry_request(self.ctx, self.state), tick)
            self._last_telemetry_time = time
            return
        if self.state is MissionState.LANDING:
            self._enter(MissionState.LANDED)
            self.guidance = GuidanceCommand()
            self._bus.drain(self.CLIENT_ID)
            return
        if self.state is MissionState.LANDED:
            self._bus.drain(self.CLIENT_ID)
            return

        self._process_inbox()

        if self.state is MissionState.SEARCH:
            if (
                self.ctx.current_target is not None
                and self.ctx.target_position is not None
                and not self.ctx.signal_sent_for_current
                and distance(pursuer.position, self.ctx.target_position)
                < self.gains.activation_radius
            ):
                self._dispatch(DistanceBelowThreshold())
        elif self.state is MissionState.LOCK:
            assert self.ctx.last_camera_tick is not None
            gap = tick - self.ctx.last_camera_tick
            if gap > self._grace_ticks:
                self._dispatch(CameraStale())
            else:
                contained = gap <= self._frame_gap_ticks
                if advance_lock_timer(self.ctx, contained, self.dt, self.gains):
                    self._dispatch(LockTimerElapsed())
                    if self.ctx.remaining_targets == 0:
                        self._dispatch(NoMoreTargets())

        # Periodic telemetry keeps the server informed and the assignment fresh.
        if self.state in (MissionState.SEARCH, MissionState.LOCK):
            due = (
                self._last_telemetry_time is None
                or time - self._last_telemetry_time >= self.telemetry_period - 1e-9
            )
            if due:
                self._publisher.send(
                    topics.TELEMETRY, _telemetry_request(self.ctx, self.state), tick
                )
                self._last_telemetry_time = time

        # Continuous guidance refresh: SEARCH re-aims at the last reported
        # position every tick; LOCK holds the latest camera command.
        if self.state is MissionState.SEARCH:
            if self.ctx.target_position is not None:
                self.guidance = search_guidance(pursuer, self.ctx.target_position, self.gains)
            else:
                self.guidance = GuidanceCommand()
        elif self.state is not MissionState.LOCK:
            self.guidance = GuidanceCommand()
