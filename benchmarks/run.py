"""The lockon benchmark: one command, three closed-loop workloads.

    python3 benchmarks/run.py --workload seed_sweep --seed 1 --seconds 10 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``seed_sweep``   -- short randomized single-target engagements;
* ``target_queue`` -- long 16-target missions;
* ``server_http``  -- 2 clients against ``lockon serve`` over loopback HTTP.

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs a fixed amount of work twice, untraced and then
traced, and reports the per-layer metrics plus the tracing overhead. Every
run checks the program's outputs; a failed check counts as a failed
operation. Times are in reference seconds (``speed.py``), which the host's
swings in speed leave out. The lines printed first name each metric with
its unit; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import resource
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checkout  # noqa: F401  (makes ``lockon`` the checkout's own sources)
import inputs
import layers
import speed
from lockon import runner
from lockon import scenario as scenario_mod
from lockon.scenario import Scenario

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
BUNDLED = ("moving_target", "accelerating_target", "hovering_target")
SETUPS_PER_PASS = 3
MIN_SERVER_ROUNDS = 4
TRACE_REPEATS = 2  # untraced and traced passes (rounds) of a --trace 1 run
NPROC = len(os.sched_getaffinity(0))

# End-to-end metrics in the JSON result, with units. Their meaning per
# workload (the names the lines before the result use) is in NOTES.md.
END_TO_END = {
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = {"http.wait_ms": "ms", "tracing.overhead": "ratio"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value as measured, never interpolated."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def log_digest(result: runner.RunResult) -> str:
    return hashlib.sha256(runner.event_log_to_jsonl(result.event_log).encode()).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


# --------------------------------------------------------------------------
# Simulation workloads: seed_sweep and target_queue
#
# Each ``runner.run`` call is timed by a ``speed.Clock``, in reference
# seconds, and repeated in passes over the run; an engagement's time is the
# median of its passes.


@dataclass(frozen=True)
class SimWorkload:
    name: str
    build: Callable[[int], Scenario]  # pool key -> scenario
    pool: int  # pool keys with a golden digest
    engagements: int  # pool entries a run repeats; the seed picks and orders them
    tail_q: float  # percentile reported as op_ms_tail
    all_lock: bool  # every target of every run must lock


SIM_WORKLOADS = {
    wl.name: wl
    for wl in (
        SimWorkload("seed_sweep", inputs.random_scenario, inputs.SWEEP_POOL, inputs.SWEEP_POOL, 0.95, False),
        SimWorkload("target_queue", inputs.mission, inputs.QUEUE_POOL, 8, 0.75, True),
    )
}
MIN_PASSES = 2


def sim_setup(wl: SimWorkload, seed: int) -> tuple[list[tuple[str, Scenario]], list[tuple[int, Scenario]]]:
    """Load the bundled warm-up scenarios and build the seed's engagements."""
    bundled = [(name, scenario_mod.load_scenario(name)) for name in BUNDLED]
    keys = inputs.pool_order(wl.name, seed, wl.pool)[: wl.engagements]
    return bundled, [(key, wl.build(key)) for key in keys]


def all_locked(result: runner.RunResult) -> bool:
    outcomes = result.report.per_target
    return len(outcomes) == inputs.QUEUE_TARGETS and all(o.locked for o in outcomes)


def check_run(wl: SimWorkload, expected: str, result: runner.RunResult, tally: Tally, what: str) -> None:
    ok = log_digest(result) == expected
    tally.record(ok and (not wl.all_lock or all_locked(result)), what)


@dataclass
class Passes:
    """Per pool key: the wall and reference seconds of each run, and the ticks."""

    wall: dict[int, list[float]]
    ref: dict[int, list[float]]
    ticks: dict[int, int]

    def typical(self) -> dict[int, float]:
        """Reference seconds per engagement: the median of its passes."""
        return {key: statistics.median(samples) for key, samples in self.ref.items() if samples}


def sim_passes(
    wl: SimWorkload,
    golden: dict,
    order: list[tuple[int, Scenario]],
    tally: Tally,
    clock: speed.Clock,
    seconds: float | None = None,
    each_pass: Callable[[], None] | None = None,
) -> Passes:
    """Run the engagements in order, pass after pass, calling `each_pass`
    before each.

    With `seconds`, stop once they have passed and MIN_PASSES passes are
    complete; without, after exactly one pass.
    """
    passes = Passes({key: [] for key, _ in order}, {key: [] for key, _ in order}, {})
    started = time.perf_counter()
    index = 0
    while True:
        if seconds is None:
            if index == len(order):
                break
        elif index >= MIN_PASSES * len(order) and time.perf_counter() - started >= seconds:
            break
        if each_pass is not None and index % len(order) == 0:
            each_pass()
        key, scenario = order[index % len(order)]
        index += 1
        t0 = clock.start()
        try:
            result = runner.run(scenario)
        except Exception:
            traceback.print_exc()
            tally.record(False, f"{wl.name} run {key} raised")
            continue
        wall, ref = clock.stop(t0)
        passes.wall[key].append(wall)
        passes.ref[key].append(ref)
        passes.ticks[key] = result.event_log[-1]["tick"] + 1
        check_run(wl, golden[wl.name][str(key)], result, tally, f"{wl.name} run {key}")
    return passes


def warm_up(wl: SimWorkload, golden: dict, bundled, tally: Tally) -> None:
    for name, scenario in bundled:
        result = runner.run(scenario)
        tally.record(log_digest(result) == golden["bundled"][name], f"bundled {name}")


def run_sim(wl: SimWorkload, seed: int, seconds: float, trace: bool) -> dict:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    tally = Tally()
    clock = speed.Clock()
    setup_times: list[float] = []

    def set_up():
        t0 = clock.start()
        built = sim_setup(wl, seed)
        setup_times.append(clock.stop(t0)[1])
        return built

    def set_up_again() -> None:
        for _ in range(SETUPS_PER_PASS):
            set_up()

    bundled, order = set_up()
    warm_up(wl, golden, bundled, tally)

    if trace:
        # Untraced and traced passes alternate, each engagement timed by the
        # median of its passes on either side.
        plain = Passes({key: [] for key, _ in order}, {key: [] for key, _ in order}, {})
        traced = Passes({key: [] for key, _ in order}, {key: [] for key, _ in order}, {})
        tracer = layers.Tracer()
        for _ in range(TRACE_REPEATS):
            for key, samples in sim_passes(wl, golden, order, tally, clock).ref.items():
                plain.ref[key] += samples
            with tracer:
                bundled, order = sim_setup(wl, seed)
                warm_up(wl, golden, bundled, tally)
                for key, samples in sim_passes(wl, golden, order, tally, clock).ref.items():
                    traced.ref[key] += samples
        if tracer.missing:
            print(f"not traced (attribute not found): {', '.join(tracer.missing)}", file=sys.stderr)
        metrics = layers.layer_metrics(tracer.snapshot())
        metrics["http.wait_ms"] = 0.0
        metrics["tracing.overhead"] = sum(traced.typical().values()) / sum(plain.typical().values())
        return report(wl.name, tally, metrics)

    passes = sim_passes(wl, golden, order, tally, clock, seconds, set_up_again)
    typical = passes.typical()
    times = list(typical.values())
    ticks = sum(passes.ticks[key] for key in typical)
    wall = sum(statistics.median(passes.wall[key]) for key in typical)
    values = {
        "work_per_s": ticks / sum(times),
        "op_ms_p50": percentile(times, 0.5) * 1000.0,
        "op_ms_tail": percentile(times, wl.tail_q) * 1000.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    runs = sum(map(len, passes.ref.values()))
    names = {
        "work_per_s": f"sim_ticks_per_s ({len(typical)} engagements, {runs} runs; {ticks / wall:.0f} by the wall clock)",
        "op_ms_p50": f"run_ms_p50 (n={len(typical)})",
        "op_ms_tail": f"run_ms_p{round(wl.tail_q * 100)} (n={len(typical)})",
        "setup_s": f"setup_s (median of {len(setup_times)})",
        "peak_rss_mb": "peak_rss_mb",
    }
    return report(wl.name, tally, values, names)


# --------------------------------------------------------------------------
# server_http
#
# A round starts a mission server, drives it through the clients' fixed
# schedules and checks its records. The schedules run in segments of
# SEGMENT requests per client, each bracketed by an HttpProbe.
#
# The clients and the servers share one vCPU. Spread over two, every reply
# wakes the other vCPU, and what that costs depends on the rest of the
# host: over five seeds, the p99 moved by 34 % (quartile spread over the
# median) on two vCPUs and by 7 % on one.

SEGMENT = 50
SERVER_CPU = min(os.sched_getaffinity(0))
PROBE_REQUESTS = 10  # per client, against the reference server
HTTP_REFERENCE_S = 0.014  # their time on the reference host (2 vCPUs, Python 3.11.7)


@dataclass
class Round:
    """One mission server's request schedule, in reference seconds."""

    seconds: float  # sum of the segments' durations
    requests: int  # requests answered
    latencies: list[float]  # per answered request
    wall_latencies: list[float]  # the same, by the wall clock


class ServerProcess:
    """``benchmarks/serve.py`` in a child process: start, seed, stop."""

    def __init__(self, options: list[str], targets: list[dict] | None = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), *options],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.snapshot: dict | None = None
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"mission server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            if targets is not None:
                self._seed(targets)
        except BaseException:
            self.stop()
            raise

    def _seed(self, targets: list[dict]) -> None:
        """Seed the target queue and lock its first LOCKED_AT_SETUP targets."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            posts = [("/api/seed", json.dumps({"targets": targets}).encode())]
            posts += [("/api/lock", inputs.lock_body(t)) for t in targets[: inputs.LOCKED_AT_SETUP]]
            for path, body in posts:
                conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                if response.status // 100 != 2:
                    raise RuntimeError(f"seeding {path} failed with status {response.status}")
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = [line for line in out.splitlines() if line.startswith("{")]
        if lines:
            self.snapshot = json.loads(lines[-1])


class Accept:
    """Any 200 reply is correct (the reference server's answers)."""

    def ok(self, method: str, status: int, data: bytes) -> bool:
        return status == 200


class Expected:
    """What a correct server answers, given the seeded queue."""

    def __init__(self, targets: list[dict]) -> None:
        head = targets[inputs.LOCKED_AT_SETUP]
        self.telemetry = {
            "has_target": True,
            "target_id": head["id"],
            "target_position": head["position"],
            "remaining_targets": len(targets) - inputs.LOCKED_AT_SETUP,
        }
        self.locked = [("Lock", t["id"]) for t in targets[: inputs.LOCKED_AT_SETUP]]

    def ok(self, method: str, status: int, data: bytes) -> bool:
        if status != 200:
            return False
        try:
            body = json.loads(data)
            if method == "POST":
                return body == self.telemetry
            return [(r["kind"], r["body"]["target_id"]) for r in body["records"]] == self.locked
        except (ValueError, KeyError, TypeError):
            return False


class Connection:
    """One client connection: sends a request, then parses its reply as it arrives.

    It reconnects whenever the server closed the previous exchange, so it
    follows the server's keep-alive behaviour the way ``http.client`` does.
    """

    def __init__(self, port: int, schedule) -> None:
        self.port = port
        self.schedule = schedule
        self.index = 0  # schedule position of the request in flight
        self.sock: socket.socket | None = None
        self.buffer = bytearray()
        self.sent = 0.0

    def send(self) -> None:
        method, path, body = self.schedule[self.index]
        self.sent = time.perf_counter()
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=10.0)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.sock.sendall(head.encode() + b"\r\n" + (body or b""))

    def receive(self) -> tuple[int, bytes] | None:
        """Read what has arrived: (status, body) once the whole reply is in."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection before replying")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = bytes(self.buffer[:head_end]).decode("latin-1").split("\r\n")
        version, status = lines[0].split(" ", 2)[:2]
        headers = {k.strip().lower(): v.strip() for k, _, v in (line.partition(":") for line in lines[1:])}
        end = head_end + 4 + int(headers.get("content-length", 0))
        if len(self.buffer) < end:
            return None
        body = bytes(self.buffer[head_end + 4 : end])
        del self.buffer[:end]
        keep = headers.get("connection", "").lower()
        if keep == "close" or (version == "HTTP/1.0" and keep != "keep-alive"):
            self.close()
        return int(status), body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buffer.clear()


class Clients:
    """The closed-loop clients, all driven from one thread.

    Each connection sends its next request as soon as the previous reply is
    in, like ``HttpTransport``; one thread serves them all through a
    selector, so no client waits on another for the interpreter lock.
    """

    def __init__(self, port: int, schedules, expected: Expected) -> None:
        self.connections = [Connection(port, schedule) for schedule in schedules]
        self.expected = expected
        self.failed = 0
        self.acked_posts = 0

    def drive(self, lo: int, hi: int) -> list[float]:
        """Send requests lo..hi-1 of every schedule; the wall latency of each answer."""
        latencies: list[float] = []
        with selectors.DefaultSelector() as selector:

            def start(conn: Connection) -> None:
                while conn.index < hi:
                    try:
                        conn.send()
                        selector.register(conn.sock, selectors.EVENT_READ, conn)
                        return
                    except OSError:
                        conn.close()
                        self.failed += 1
                        conn.index += 1

            for conn in self.connections:
                conn.index = lo
                start(conn)
            while selector.get_map():
                events = selector.select(timeout=10.0)
                if not events:  # no reply in 10 s: give up on what is in flight
                    for key in list(selector.get_map().values()):
                        selector.unregister(key.fileobj)
                        key.data.close()
                        self.failed += hi - key.data.index
                    break
                for key, _ in events:
                    conn: Connection = key.data
                    try:
                        reply = conn.receive()
                    except OSError:
                        reply = None
                        ok = False
                    else:
                        if reply is None:
                            continue
                        latencies.append(time.perf_counter() - conn.sent)
                        method = conn.schedule[conn.index][0]
                        ok = self.expected.ok(method, *reply)
                        self.acked_posts += ok and method == "POST"
                    self.failed += not ok
                    selector.unregister(key.fileobj)
                    if reply is None:
                        conn.close()
                    conn.index += 1
                    start(conn)
        return latencies

    def close(self) -> None:
        for conn in self.connections:
            conn.close()


class HttpProbe:
    """Times PROBE_REQUESTS requests per client against the reference server.

    The reference server (``speed.ReferenceHandler``) takes the mission
    server's HTTP path without its handlers, so it slows down with the
    host's sockets, threads and interpreter together, as the mission server
    does; the Python kernel alone tracked the rounds' rate poorly.
    """

    def __init__(self, schedules) -> None:
        self.server = ServerProcess(["--reference", "1"])
        self.clients = Clients(self.server.port, [s[:PROBE_REQUESTS] for s in schedules], Accept())

    def __call__(self) -> float:
        started = time.perf_counter()
        self.clients.drive(0, PROBE_REQUESTS)
        elapsed = time.perf_counter() - started
        if self.clients.failed:
            raise RuntimeError("the reference server failed a request")
        return elapsed

    def close(self) -> None:
        self.clients.close()
        self.server.stop()


def server_round(
    seed_targets: list[dict], schedules, trace: bool, tally: Tally, clock: speed.Clock, http_clock: speed.Clock
):
    """One mission server: start and seed it, drive it, check its records.

    Returns the setup reference seconds, the round, and the traced server's
    totals.
    """
    expected = Expected(seed_targets)
    t0 = clock.start()
    server = ServerProcess(["--trace", str(int(trace))], seed_targets)
    setup = clock.stop(t0)[1]
    clients = Clients(server.port, schedules, expected)
    measured = Round(0.0, 0, [], [])
    try:
        for lo in range(0, len(schedules[0]), SEGMENT):
            t0 = http_clock.start()
            latencies = clients.drive(lo, lo + SEGMENT)
            wall, ref = http_clock.stop(t0)
            measured.seconds += ref
            measured.requests += len(latencies)
            measured.latencies += [lat * ref / wall for lat in latencies]
            measured.wall_latencies += latencies
        tally.attempted += measured.requests + clients.failed
        tally.failed += clients.failed
        acked = clients.acked_posts + inputs.LOCKED_AT_SETUP
        tally.record(record_count(server.port) == acked, "server record count != acknowledged POSTs")
    finally:
        clients.close()
        server.stop()
    return setup, measured, server.snapshot


def record_count(port: int) -> int | None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", "/api/records")
        response = conn.getresponse()
        if response.status == 200:
            return len(json.loads(response.read())["records"])
    except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError):
        pass
    finally:
        conn.close()
    return None


def run_server(seed: int, seconds: float, trace: bool) -> dict:
    os.sched_setaffinity(0, {SERVER_CPU})  # the servers inherit it
    schedules = [inputs.request_mix(seed, client) for client in range(inputs.CLIENTS)]
    http_probe = HttpProbe(schedules)
    try:
        return measure_server(seed, seconds, trace, speed.Clock(http_probe, HTTP_REFERENCE_S))
    finally:
        http_probe.close()


def measure_server(seed: int, seconds: float, trace: bool, http_clock: speed.Clock) -> dict:
    tally = Tally()
    clock = speed.Clock()
    targets = inputs.server_targets(seed)
    schedules = [inputs.request_mix(seed, client) for client in range(inputs.CLIENTS)]
    per_round = sum(len(s) for s in schedules)

    if trace:
        plain, traced, snaps = [], [], []
        for _ in range(TRACE_REPEATS):
            plain.append(server_round(targets, schedules, False, tally, clock, http_clock)[1])
            _, measured, snap = server_round(targets, schedules, True, tally, clock, http_clock)
            traced.append(measured)
            if snap is None:
                tally.record(False, "traced server printed no totals")
            else:
                snaps.append(snap)
        snap = layers.merge(snaps)
        metrics = layers.layer_metrics(snap)
        # Client time per request that the store's handlers do not account
        # for (each round's closing record-count query adds a few ms to them).
        handled_ns = sum(
            snap["stats"].get(label, (0, 0, 0))[1]
            for label in ("server.handle_telemetry", "server.query_records")
        )
        latency_ms = sum(sum(r.wall_latencies) for r in traced) * 1e3
        metrics["http.wait_ms"] = (latency_ms - handled_ns / 1e6) / sum(r.requests for r in traced)

        def rate(rounds: list[Round]) -> float:
            return sum(r.requests for r in rounds) / sum(r.seconds for r in rounds)

        metrics["tracing.overhead"] = rate(plain) / rate(traced)
        return report("server_http", tally, metrics)

    setup_times, rounds = [], []
    started = time.perf_counter()
    while len(rounds) < MIN_SERVER_ROUNDS or time.perf_counter() - started < seconds:
        setup, measured, _ = server_round(targets, schedules, False, tally, clock, http_clock)
        setup_times.append(setup)
        rounds.append(measured)
    latencies = [lat for r in rounds for lat in r.latencies]
    wall = [lat for r in rounds for lat in r.wall_latencies]
    values = {
        "work_per_s": statistics.median(r.requests / r.seconds for r in rounds),
        "op_ms_p50": percentile(latencies, 0.5) * 1000.0,
        "op_ms_tail": percentile(latencies, 0.99) * 1000.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    names = {
        "work_per_s": f"req_per_s (median of {len(rounds)} rounds of {per_round})",
        "op_ms_p50": f"req_ms_p50 (n={len(latencies)}; {percentile(wall, 0.5) * 1000.0:.3f} by the wall clock)",
        "op_ms_tail": f"req_ms_p99 (n={len(latencies)}; {percentile(wall, 0.99) * 1000.0:.3f} by the wall clock)",
        "setup_s": f"setup_s (median of {len(setup_times)} server starts)",
        "peak_rss_mb": "peak_rss_mb (mission server)",
    }
    return report("server_http", tally, values, names)


# --------------------------------------------------------------------------
# Output


def report(workload: str, tally: Tally, values: dict, notes: dict | None = None) -> dict:
    """Print every metric by name with its unit, then build the JSON result."""
    units = {**END_TO_END, **layers.metric_units(), **PER_LAYER_EXTRA}
    notes = notes or {}
    print(f"{workload} environment: python {platform.python_version()}, nproc {NPROC}")
    for key, value in values.items():
        print(f"{workload} {key:42s} {value:16.4f} {units[key]:5s} {notes.get(key, '')}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{workload} {'failed_frac':42s} {frac:16.4f} {'':5s} {tally.failed} of {tally.attempted}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


WORKLOADS = (*SIM_WORKLOADS, "server_http")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "server_http":
        doc = run_server(args.seed, args.seconds, bool(args.trace))
    else:
        doc = run_sim(SIM_WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
