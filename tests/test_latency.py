"""Latency harness validation and failure reporting."""

import json
import socket

import pytest

from lockon.server import (
    LatencyHarnessError,
    MissionStore,
    ServerThread,
    _padded_telemetry_body,
    latency_harness,
)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestValidation:
    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError):
            latency_harness(port=1, n_requests=0)

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            latency_harness(port=1, payload_bytes=0)


class TestPadding:
    def test_body_padded_to_exact_size(self):
        body = _padded_telemetry_body(500)
        assert len(body) == 500
        assert json.loads(body)["uav_id"] == "latency-probe"

    def test_tiny_target_keeps_required_fields(self):
        body = _padded_telemetry_body(10)
        obj = json.loads(body)
        assert obj["state"] == "SEARCH"


class TestFailurePaths:
    def test_unreachable_server_names_request_index(self):
        with pytest.raises(LatencyHarnessError, match="request 0"):
            latency_harness(port=free_port(), n_requests=5)

    def test_server_stopping_mid_run_aborts(self):
        store = MissionStore([])
        server = ServerThread(store)
        server.__enter__()
        report = latency_harness(port=server.port, n_requests=5)
        assert report["count"] == 5
        server.__exit__(None, None, None)
        with pytest.raises(LatencyHarnessError, match="request"):
            latency_harness(port=server.port, n_requests=5)


class TestReport:
    def test_percentiles_and_mean_present(self):
        store = MissionStore([])
        with ServerThread(store) as server:
            report = latency_harness(port=server.port, payload_bytes=500, n_requests=20)
        assert report["p50_ms"] <= report["p95_ms"]
        assert report["mean_ms"] > 0.0
        assert report["count"] == 20
        assert store.record_count("Telemetry") == 20
