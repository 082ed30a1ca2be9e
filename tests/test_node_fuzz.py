"""Every node survives arbitrary bytes on each topic it subscribes to.

A fuzzing publisher sends each node a few ticks' worth of envelopes on the
node's own topics: noise, arbitrary JSON, valid messages and valid messages
with bytes spliced in. Scripted offsets and telemetry responses, with a
one-tick lock duration and a wide activation radius, walk the autonomous
node through SEARCH, LOCK and the lock report, so the noise arrives in
every state.
"""

import json
import math
import random

from hypothesis import example, given, settings, strategies as st

from lockon import bus as topics
from lockon.autonomy import AutonomousNode, ControlGains
from lockon.bus import MessageBus
from lockon.payloads import OffsetMessage, TelemetryResponse
from lockon.proxy import InProcessTransport, ProxyNode
from lockon.server import MissionStore, TargetAssignment
from lockon.vision import VisionNode, VisionParams
from lockon.world import PursuerState, Vec3

from conftest import DEEP_JSON, json_values
from test_payloads import MESSAGES

GAINS = ControlGains(activation_radius=1e3, lock_duration=0.05)


def deep_on(topic_names):
    """One tick with a too-deeply nested payload on each topic."""
    return example(ticks=[[(topic, DEEP_JSON) for topic in topic_names]])


# Envelopes that move the autonomous node on: an assignment within the
# activation radius, the end of the queue, and camera offsets.
SCRIPTED = st.one_of(
    st.just((topics.TELEMETRY_RESPONSE, TelemetryResponse(True, "T1", Vec3(5, 0, 10), 2).encode())),
    st.just((topics.TELEMETRY_RESPONSE, TelemetryResponse(False, None, None, 0).encode())),
    st.integers(0, 12).map(lambda tick: (topics.IMAGE_MESSAGE, OffsetMessage(0.1, -0.1, tick).encode())),
)


def payloads():
    valid = MESSAGES.map(lambda message: message.encode())
    spliced = st.tuples(valid, st.integers(0, 200), st.binary(min_size=1, max_size=8)).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1]:]
    )
    documents = json_values.map(lambda value: json.dumps(value).encode())
    return st.one_of(st.binary(max_size=64), documents, valid, spliced, st.just(b""))


def ticks_of(topic_names, scripted=st.nothing()):
    envelope = st.tuples(st.sampled_from(topic_names), payloads()) | scripted
    return st.lists(st.lists(envelope, max_size=4), min_size=1, max_size=12)


def feed(bus, ticks, step):
    """Publish each tick's envelopes, deliver them, then step the node."""
    for tick, envelopes in enumerate(ticks):
        for topic, payload in envelopes:
            bus.publish("fuzzer", topic, payload, tick)
        bus.deliver()
        step(tick)


@settings(max_examples=50, deadline=None)
@given(ticks_of([topics.SIGNAL_PROCESS_IMAGE, topics.LAND]))
@deep_on([topics.SIGNAL_PROCESS_IMAGE, topics.LAND])
def test_vision_node_survives_any_bytes(ticks):
    bus = MessageBus()
    node = VisionNode(bus, VisionParams(p_detect=1.0, detector_latency_frames=0), random.Random(0))
    feed(bus, ticks, lambda tick: node.step(tick, lambda: (0.1, -0.2)))


@settings(max_examples=200, deadline=None)
@given(ticks_of([topics.TELEMETRY_RESPONSE, topics.IMAGE_MESSAGE, topics.LAND], SCRIPTED))
@deep_on([topics.TELEMETRY_RESPONSE, topics.IMAGE_MESSAGE, topics.LAND])
def test_autonomous_node_survives_any_bytes(ticks):
    bus = MessageBus()
    node = AutonomousNode(bus, "uav-1", GAINS, dt=0.05, frame_period=0.1, telemetry_period=1.0)
    pursuer = PursuerState(Vec3(0.0, 0.0, 10.0), 0.0, 0.0, 0.0)

    def step(tick):
        node.step(tick, tick * 0.05, pursuer)
        command = node.guidance
        assert math.isfinite(command.yaw_rate) and math.isfinite(command.pitch_rate)
        assert math.isfinite(command.speed) and command.speed >= 0.0

    feed(bus, ticks, step)


@settings(max_examples=100, deadline=None)
@given(ticks_of([topics.TELEMETRY, topics.LOCK, topics.LAND]))
@deep_on([topics.TELEMETRY, topics.LOCK, topics.LAND])
def test_proxy_node_survives_any_bytes(ticks):
    bus = MessageBus()
    store = MissionStore([TargetAssignment("T1", Vec3(60.0, 0.0, 10.0))])
    node = ProxyNode(bus, InProcessTransport(store))
    feed(bus, ticks, node.step)
