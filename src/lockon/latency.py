"""Loopback-HTTP latency harness: ``lockon latency`` times telemetry round trips.

It is a client of a running mission server (``lockon serve``), which never
imports it.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import time


class LatencyHarnessError(Exception):
    """The latency harness could not complete its request batch."""


def _padded_telemetry_body(payload_bytes: int) -> bytes:
    base = {
        "uav_id": "latency-probe",
        "time": 0.0,
        "position": {"x": 0.0, "y": 0.0, "z": 0.0},
        "state": "SEARCH",
        "pad": "",
    }
    overhead = len(json.dumps(base, separators=(",", ":")).encode())
    pad = max(0, payload_bytes - overhead)
    base["pad"] = "x" * pad
    return json.dumps(base, separators=(",", ":")).encode()


def latency_harness(
    port: int,
    payload_bytes: int = 500,
    n_requests: int = 1000,
    host: str = "127.0.0.1",
) -> dict:
    """Measure telemetry round-trip latency over loopback HTTP.

    Issues n_requests POSTs with bodies padded to payload_bytes and reports
    p50/p95/mean in milliseconds. A failed request aborts the whole batch.
    """
    if n_requests <= 0:
        raise ValueError("n_requests must be > 0")
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be > 0")
    body = _padded_telemetry_body(payload_bytes)
    headers = {"Content-Type": "application/json"}
    durations_ms: list[float] = []
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        for index in range(n_requests):
            started = time.perf_counter()
            try:
                conn.request("POST", "/api/telemetry", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                raise LatencyHarnessError(f"request {index} failed: {exc}") from exc
            if status != 200:
                raise LatencyHarnessError(f"request {index} failed with status {status}")
            durations_ms.append((time.perf_counter() - started) * 1000.0)
    finally:
        conn.close()

    ordered = sorted(durations_ms)

    def nearest_rank(q: float) -> float:
        rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
        return ordered[rank - 1]

    return {
        "p50_ms": nearest_rank(0.50),
        "p95_ms": nearest_rank(0.95),
        "mean_ms": statistics.fmean(durations_ms),
        "count": n_requests,
        "payload_bytes": len(body),
    }
