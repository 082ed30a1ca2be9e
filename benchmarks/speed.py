"""Host-speed reference: times measured in seconds of a reference host.

The hosts these figures come from share their cores with other machines,
and a core's speed swings by up to 2x in phases of a fraction of a second
to tens of seconds. Process CPU time swings with wall time, so the loss is
in the core itself (a busy sibling thread, shared caches), not in
scheduling, and no choice of clock removes it. What does remove most of it
is timing a fixed reference kernel next to the work: when the core is slow,
both slow down together.

``Clock`` runs ``kernel`` (a stdlib-only stand-in for the simulator's
inner loop: frozen dataclasses, ``dataclasses.replace``, float math and
small JSON messages, which is what the lockon hot path spends its time on)
before and after each timed piece of work, and scales the work's wall time
by ``REFERENCE_S`` over the kernel's mean time around it. The result reads
as the seconds the work would take on a host where the kernel takes
``REFERENCE_S``: this one (2 vCPUs, Python 3.11.7) at its usual speed.

The kernel is the benchmark's own code, so a change to lockon never moves
it; garbage collection is off while it runs, so the program's heap never
does either.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REFERENCE_S = 0.005  # kernel seconds on the reference host (2 vCPUs, Python 3.11.7)
KERNEL_STEPS = 600


@dataclasses.dataclass(frozen=True)
class _Vec:
    x: float
    y: float
    z: float

    def __add__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.x + other.x, self.y + other.y, self.z + other.z)

    def scale(self, k: float) -> "_Vec":
        return _Vec(self.x * k, self.y * k, self.z * k)


@dataclasses.dataclass(frozen=True)
class _State:
    position: _Vec
    velocity: _Vec
    yaw: float
    tick: int


def kernel(steps: int = KERNEL_STEPS) -> int:
    """A fixed amount of simulator-like interpreter work; returns a checksum."""
    state = _State(_Vec(0.0, 0.0, 10.0), _Vec(1.0, 0.5, 0.0), 0.0, 0)
    log: list[dict] = []
    inbox: list[str] = []
    for step in range(steps):
        state = dataclasses.replace(
            state,
            position=state.position + state.velocity.scale(0.05),
            yaw=math.atan2(state.velocity.y, state.velocity.x),
            tick=state.tick + 1,
        )
        distance = math.sqrt(state.position.x**2 + state.position.y**2)
        if step % 4 == 0:
            inbox.append(json.dumps({"tick": step, "x": state.position.x, "y": state.position.y}))
        while inbox:
            message = json.loads(inbox.pop())
            log.append({"tick": message["tick"], "kind": "offset", "distance": distance})
    return len(log)


def probe() -> float:
    """Wall seconds of one ``kernel`` call, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class ReferenceHandler(BaseHTTPRequestHandler):
    """The reference for HTTP work: the mission server's request path
    (``http.server``, a thread per connection, a JSON body in and a JSON
    reply out) with none of its handlers."""

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        self._reply({"fields": sorted(body)})

    def do_GET(self) -> None:  # noqa: N802
        self._reply({"records": []})

    def _reply(self, body: dict) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        pass


def serve_reference() -> int:
    """Serve ``ReferenceHandler`` on a free loopback port until interrupted."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ReferenceHandler)
    print(f"reference server listening on 127.0.0.1:{httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


class Clock:
    """Times pieces of work in wall seconds and in reference seconds.

    ``stop`` probes the host after the work; the probe before it is the one
    the previous ``stop`` (or the constructor) took. `reference_s` is what
    `probe` takes on the reference host.
    """

    def __init__(self, probe=probe, reference_s: float = REFERENCE_S) -> None:
        self._probe = probe
        self._reference_s = reference_s
        self._before = probe()

    def start(self) -> float:
        return time.perf_counter()

    def stop(self, started: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) since `started`."""
        wall = time.perf_counter() - started
        after = self._probe()
        speed = self._reference_s / ((self._before + after) / 2.0)
        self._before = after
        return wall, wall * speed
