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
``OffsetMessage``) and the ``Sensed`` conditions the node senses each tick;
it updates the context in place and returns the new state with the actions
to run, each a ``(topic, payload)`` pair to publish. ``AutonomousNode`` owns
that context, sets its tick, time and pose each tick, advances the
containment timer, and talks to the bus.

SEARCH and LOCK steer the node's one ``SteeringCommand`` in place, so
``node.guidance`` is valid until the node's next ``step``: ``search_guidance``
rewrites it on every SEARCH tick with a target, and ``lock_guidance`` on each
offset that leaves the node in LOCK (``handle_event`` returns no action for
an offset). The node drains its inbox only on a tick that begins with mail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import bus as topics
from .bus import MessageBus
from .payloads import (
    DecodeError,
    LockReport,
    Message,
    OffsetMessage,
    TelemetryRequest,
    TelemetryResponse,
)
from .world import PursuerState, SteeringCommand, Vec3, check_finite, distance, wrap_angle


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
        check_finite(self, "activation_radius", "lock_duration", "k_yaw", "k_pitch", "v_cruise",
                     "v_lock", "camera_grace", positive=True)


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


class Sensed(Enum):
    """The events the node senses itself each tick, besides the decoded messages."""

    DISTANCE_BELOW_THRESHOLD = "DISTANCE_BELOW_THRESHOLD"
    CAMERA_STALE = "CAMERA_STALE"
    LOCK_TIMER_ELAPSED = "LOCK_TIMER_ELAPSED"
    NO_MORE_TARGETS = "NO_MORE_TARGETS"


# The FSM reads its states and events through these module constants. On
# Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so every
# ``MissionState.SEARCH`` read goes through the metaclass hook: about 0.13 us,
# against 0.015 us for a global, and ``step`` alone makes up to nine a tick.
_BOOT = MissionState.BOOT
_SEARCH = MissionState.SEARCH
_LOCK = MissionState.LOCK
_LANDING = MissionState.LANDING
_LANDED = MissionState.LANDED
_DISTANCE_BELOW_THRESHOLD = Sensed.DISTANCE_BELOW_THRESHOLD
_CAMERA_STALE = Sensed.CAMERA_STALE
_LOCK_TIMER_ELAPSED = Sensed.LOCK_TIMER_ELAPSED
_NO_MORE_TARGETS = Sensed.NO_MORE_TARGETS


Event = TelemetryResponse | OffsetMessage | Sensed
Action = tuple[str, bytes | Message]  # a (topic, payload) pair to publish

_TIMER_EPS = 1e-9
# The never-written command of a node with nothing to steer at (no target, or landing).
_HOLD = SteeringCommand()


def search_guidance(
    pursuer: PursuerState, target: Vec3, gains: ControlGains, command: SteeringCommand
) -> SteeringCommand:
    """Proportional heading control toward the line of sight, at cruise speed.

    Yaw and pitch rates are proportional to the wrapped angular error between
    the current attitude and the LOS to the target. Coincident positions
    degenerate to zero rates. The rates and the speed are written into
    ``command``, which is returned; a non-finite rate raises ValueError and
    leaves ``command`` as it was. The caller passes a finite ``target``: an
    infinite coordinate can still give finite rates.
    """
    rx, ry, rz = target.x - pursuer.x, target.y - pursuer.y, target.z - pursuer.z
    if math.sqrt(rx * rx + ry * ry + rz * rz) < 1e-6:
        yaw_rate = pitch_rate = 0.0
    else:
        yaw_rate = gains.k_yaw * wrap_angle(math.atan2(ry, rx) - pursuer.yaw)
        pitch_rate = gains.k_pitch * (math.atan2(rz, math.hypot(rx, ry)) - pursuer.pitch)
        if not (math.isfinite(yaw_rate) and math.isfinite(pitch_rate)):
            raise ValueError("rates must be finite")
    command.yaw_rate, command.pitch_rate, command.speed = yaw_rate, pitch_rate, gains.v_cruise
    return command


def lock_guidance(
    offset: OffsetMessage, gains: ControlGains, command: SteeringCommand
) -> SteeringCommand:
    """Visual-servoing command that centers the camera offset.

    Rates are proportional to the offset magnitudes and steer toward the
    target: a positive x (target right of center) demands a clockwise
    (negative) yaw rate in this CCW-positive frame, a positive y (target
    below center) a nose-down pitch rate. Forward speed is the constant
    v_lock; no range information exists in the offset, so there is no
    closure control. The rates and the speed are written into ``command``,
    which is returned; a non-finite rate raises ValueError and leaves
    ``command`` as it was.
    """
    yaw_rate, pitch_rate = -gains.k_yaw * offset.x, -gains.k_pitch * offset.y
    if not (math.isfinite(yaw_rate) and math.isfinite(pitch_rate)):
        raise ValueError("rates must be finite")
    command.yaw_rate, command.pitch_rate, command.speed = yaw_rate, pitch_rate, gains.v_lock
    return command


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
        uav_id=ctx.uav_id, time=ctx.time, position=ctx.pursuer.position, state=state._value_
    )


def handle_event(
    state: MissionState, ctx: MissionContext, event: Event
) -> tuple[MissionState, list[Action]]:
    """Mission transition: updates ctx in place, deterministic action order."""
    if state is _LANDED:
        raise StateMachineError("no events are accepted after landing")
    if state is _LANDING:
        # Mission is over; late envelopes are dropped.
        return state, []

    if state is _SEARCH:
        if isinstance(event, TelemetryResponse) and event.has_target:
            # The node steers toward target_position at the end of the tick.
            if event.target_id != ctx.current_target:
                ctx.current_target = event.target_id
                ctx.signal_sent_for_current = False
                ctx.last_camera_tick = None
            ctx.target_position = event.target_position
            ctx.remaining_targets = event.remaining_targets
            return state, []
        if event is _DISTANCE_BELOW_THRESHOLD:
            if ctx.signal_sent_for_current or ctx.current_target is None:
                return state, []
            ctx.signal_sent_for_current = True
            return state, [(topics.SIGNAL_PROCESS_IMAGE, b"")]
        if isinstance(event, OffsetMessage):
            if not ctx.signal_sent_for_current:
                # Stale offset from a previous engagement; vision has not
                # been re-armed for this target yet.
                return state, []
            ctx.lock_timer = 0.0
            ctx.lock_start_tick = ctx.last_camera_tick = event.tick
            return _LOCK, []
        if isinstance(event, TelemetryResponse) or event is _NO_MORE_TARGETS:
            # No target is left: the server sent none, or the last was locked.
            ctx.current_target = ctx.target_position = ctx.lock_start_tick = None
            ctx.lock_timer = 0.0
            return _LANDING, [(topics.LAND, b"")]
        raise StateMachineError(f"{event} is illegal in SEARCH")

    if state is _LOCK:
        if isinstance(event, OffsetMessage):
            ctx.last_camera_tick = event.tick
            return state, []
        if event is _CAMERA_STALE:
            ctx.lock_timer = 0.0
            ctx.lock_start_tick = None
            return _SEARCH, []
        if event is _LOCK_TIMER_ELAPSED:
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
            actions: list[Action] = [(topics.LOCK, report)]
            if ctx.remaining_targets > 0:
                actions.append((topics.TELEMETRY, _telemetry_request(ctx, _SEARCH)))
            return _SEARCH, actions
        if isinstance(event, TelemetryResponse):
            # In-flight periodic response; refresh bookkeeping, no transition.
            # One without a target never matches: a lock always has one.
            if event.target_id == ctx.current_target:
                ctx.target_position = event.target_position
                ctx.remaining_targets = event.remaining_targets
            return state, []
        raise StateMachineError(f"{event} is illegal in LOCK")

    raise StateMachineError(f"no events are accepted in {state._value_}")


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
        self.state = _BOOT
        self.ctx = MissionContext(uav_id=uav_id)
        self.gains = gains
        self.dt = dt
        self.telemetry_period = telemetry_period
        self.guidance = _HOLD
        self._steering = SteeringCommand()
        self._frame_gap_ticks = max(1, round(frame_period / dt))
        self._grace_ticks = max(1, round(gains.camera_grace / dt))
        self._last_telemetry_time: float | None = None
        self._bus = bus
        self._inbox = bus.inbox(self.CLIENT_ID)
        self._transition_hook = transition_hook
        bus.subscribe(self.CLIENT_ID, topics.TELEMETRY_RESPONSE)
        bus.subscribe(self.CLIENT_ID, topics.IMAGE_MESSAGE)
        bus.subscribe(self.CLIENT_ID, topics.LAND)

    def _execute(self, action: Action) -> None:
        topic, payload = action
        self._bus.publish(self.CLIENT_ID, topic, payload, self.ctx.tick)
        if topic == topics.TELEMETRY:
            self._last_telemetry_time = self.ctx.time

    def _enter(self, new_state: MissionState) -> None:
        old, self.state = self.state, new_state
        if self._transition_hook is not None:
            self._transition_hook(self.ctx.tick, old, new_state)

    def _dispatch(self, event: Event) -> None:
        new_state, actions = handle_event(self.state, self.ctx, event)
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
                        # It steers on entering or holding LOCK, never otherwise.
                        if self.state is _LOCK:
                            self.guidance = lock_guidance(offset, self.gains, self._steering)
            except DecodeError:
                continue  # a malformed envelope must not take the node down

    def step(self, tick: int, time: float, pursuer: PursuerState) -> None:
        self.ctx.tick, self.ctx.time, self.ctx.pursuer = tick, time, pursuer

        if self.state is _BOOT:
            # Single boot tick: internal structures are up, announce and search.
            self._enter(_SEARCH)
            self._execute((topics.TELEMETRY, _telemetry_request(self.ctx, self.state)))
            return
        if self.state is _LANDING:
            self._enter(_LANDED)
            self.guidance = _HOLD
        if self.state is _LANDED:
            if self._inbox:
                self._bus.drain(self.CLIENT_ID)
            return

        if self._inbox:
            self._process_inbox()

        if self.state is _SEARCH:
            if (
                self.ctx.current_target is not None
                and self.ctx.target_position is not None
                and not self.ctx.signal_sent_for_current
                and distance(pursuer, self.ctx.target_position) < self.gains.activation_radius
            ):
                self._dispatch(_DISTANCE_BELOW_THRESHOLD)
        elif self.state is _LOCK:
            assert self.ctx.last_camera_tick is not None
            gap = tick - self.ctx.last_camera_tick
            if gap > self._grace_ticks:
                self._dispatch(_CAMERA_STALE)
            else:
                contained = gap <= self._frame_gap_ticks
                if advance_lock_timer(self.ctx, contained, self.dt, self.gains):
                    self._dispatch(_LOCK_TIMER_ELAPSED)
                    if self.ctx.remaining_targets == 0:
                        self._dispatch(_NO_MORE_TARGETS)

        # Periodic telemetry keeps the server informed and the assignment fresh.
        if self.state in (_SEARCH, _LOCK):
            due = (
                self._last_telemetry_time is None
                or time - self._last_telemetry_time >= self.telemetry_period - 1e-9
            )
            if due:
                self._execute((topics.TELEMETRY, _telemetry_request(self.ctx, self.state)))

        # Continuous guidance refresh: SEARCH re-aims its command at the last
        # reported position every tick; LOCK holds its latest offset's command.
        if self.state is _SEARCH:
            if self.ctx.target_position is not None:
                self.guidance = search_guidance(
                    pursuer, self.ctx.target_position, self.gains, self._steering
                )
            else:
                self.guidance = _HOLD
        elif self.state is not _LOCK:
            self.guidance = _HOLD
