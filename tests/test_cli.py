"""CLI surface: subcommands, exit codes, file outputs."""

import http.client
import json
import socket
import subprocess
import sys
import time
from http.server import ThreadingHTTPServer

import pytest

from lockon.cli import _load_targets_file, build_parser, main
from lockon.proxy import HttpTransport
from lockon.runner import parse_jsonl
from lockon.scenario import ScenarioError
from lockon.world import Vec3


class TestMetricsCommand:
    def test_counts_to_json(self, capsys):
        assert main(["metrics", "--tp", "150", "--fp", "9", "--fn", "14"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"precision": 0.9434, "recall": 0.9146, "f1": 0.9288}

    def test_missing_arguments_fail(self, capsys):
        assert main(["metrics"]) == 2

    def test_all_zero_counts_fail_cleanly(self, capsys):
        assert main(["metrics", "--tp", "0", "--fp", "0", "--fn", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestRunCommand:
    def test_run_writes_log_and_report(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        out = tmp_path / "report.json"
        code = main(
            ["run", "--scenario", "moving_target", "--log", str(log), "--out", str(out)]
        )
        assert code == 0
        assert "locked" in capsys.readouterr().out
        entries = parse_jsonl(log.read_text())
        assert entries[0]["kind"] == "meta" and entries[-1]["kind"] == "end"
        report = json.loads(out.read_text())
        assert report["terminated_by"] == "land"

    def test_metrics_log_round_trip(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        main(["run", "--scenario", "moving_target", "--log", str(log)])
        capsys.readouterr()
        assert main(["metrics", "--log", str(log)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_target"][0]["outcome"] == "locked"

    def test_seed_override(self, tmp_path, capsys):
        code = main(["run", "--scenario", "moving_target", "--seed", "7"])
        assert code == 0
        assert "seed 7" in capsys.readouterr().out

    def test_unknown_scenario_fails(self, capsys):
        assert main(["run", "--scenario", "nope_never"]) == 1
        assert "no bundled scenario" in capsys.readouterr().err


def first_message(lines: list[str], change) -> list[str]:
    """``lines`` with ``change`` applied to the first message entry."""
    index = next(i for i, line in enumerate(lines) if '"kind":"msg"' in line)
    entry = json.loads(lines[index])
    change(entry)
    return lines[:index] + [json.dumps(entry)] + lines[index + 1:]


class TestMetricsLogBoundary:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lines: [lines[0].replace('"dt":0.05', '"dt":0')] + lines[1:],
            lambda lines: [lines[0].replace('"dt":0.05', '"dt":NaN')] + lines[1:],
            lambda lines: first_message(lines, lambda entry: entry.pop("topic")),
            lambda lines: first_message(lines, lambda entry: entry.update(payload=[1])),
            lambda lines: lines[:1] + ["[1]"] + lines[1:],
            lambda lines: lines[:1] + ["[" * 100_000] + lines[1:],
        ],
        ids=["dt 0", "dt NaN", "no topic", "list payload", "list entry", "deep entry"],
    )
    def test_malformed_log_exits_1_with_error(self, tmp_path, capsys, mutate):
        log = tmp_path / "events.jsonl"
        main(["run", "--scenario", "moving_target", "--log", str(log)])
        log.write_text("\n".join(mutate(log.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert main(["metrics", "--log", str(log)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestServeCommand:
    @pytest.mark.parametrize(
        "document",
        [
            {"targets": [{"position": [60, 0, 10]}]},
            {"targets": [{"id": 7, "p0": [60, 0, 10]}]},
            {"targets": [{"id": "T1", "p0": [float("nan"), 0, 10]}]},
            {"targets": [{"id": "T1", "p0": [0, 0, 0]}, {"id": "T1", "p0": [1, 0, 0]}]},
            [1, 2, 3],
        ],
        ids=["missing-id", "numeric-id", "nan-position", "duplicate-id", "not-an-object"],
    )
    def test_bad_targets_file_is_an_error(self, tmp_path, capsys, monkeypatch, document):
        # A file wrongly accepted would start serving and hang the test: fail instead.
        monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", lambda self: pytest.fail("served"))
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(document))
        assert main(["serve", "--port", "0", "--targets", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_an_interrupt_while_the_listening_line_is_written_closes_the_server(self, monkeypatch):
        # A supervisor that waits for the line and then stops the server interrupts here.
        ports = []

        class InterruptedOutput:
            def write(self, text):
                if "listening" in text:
                    ports.append(int(text.rsplit(":", 1)[1]))
                    raise KeyboardInterrupt
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", lambda self: pytest.fail("served"))
        monkeypatch.setattr(sys, "stdout", InterruptedOutput())
        try:
            code = main(["serve", "--port", "0"])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 0 and len(ports) == 1
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", ports[0]), timeout=5.0).close()

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize(
        "data",
        [b"[" * 200_000 + b"]" * 200_000, '{"targets": [], "name": "caf\xe9"}'.encode("latin-1")],
        ids=["nested-200000-deep", "not-utf-8"],
    )
    def test_unparseable_file_is_an_error(self, tmp_path, capsys, monkeypatch, command, data):
        monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", lambda self: pytest.fail("served"))
        path = tmp_path / "file.json"
        path.write_bytes(data)
        option = "--scenario" if command == "run" else "--targets"
        assert main([command, option, str(path)] + (["--port", "0"] if command == "serve" else [])) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_nan_position_raises_scenario_error(self, tmp_path):
        path = tmp_path / "targets.json"
        for literal in ("NaN", "1e400"):
            path.write_text('{"targets": [{"id": "T1", "position": [0, %s, 10]}]}' % literal)
            with pytest.raises(ScenarioError, match=r"targets\[0\] position: expected a finite"):
                _load_targets_file(str(path))

    def test_scenario_file_seeds_the_queue(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"targets": [{"id": "T1", "kind": "stationary", "p0": [50, 0, 10]}]}')
        assert [(t.target_id, t.position) for t in _load_targets_file(str(path))] == [
            ("T1", Vec3(50, 0, 10))
        ]


@pytest.mark.parametrize("command", ["serve", "latency"])
@pytest.mark.parametrize(
    "port", ["70000", "65536", "-1", "http", "9" * 5000],
    ids=["70000", "65536", "-1", "http", "5000-digits"],
)
def test_port_outside_0_to_65535_is_a_usage_error(capsys, monkeypatch, command, port):
    # latency once timed port 4464 for 70000, as getaddrinfo wraps the number.
    monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", lambda self: pytest.fail("served"))
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--port", port])
    assert exit_info.value.code == 2
    assert "not a port number in 0-65535" in capsys.readouterr().err


def test_serve_on_a_busy_port_is_an_error_not_a_traceback():
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        busy = str(holder.getsockname()[1])
        # A wrongly started server would serve forever: the timeout fails the test instead.
        done = subprocess.run(
            [sys.executable, "-m", "lockon.cli", "serve", "--port", busy],
            capture_output=True, text=True, timeout=20,
        )
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "command, content",
    [
        (["serve", "--port", "0", "--targets"], '{"targets": [{"position": [60, 0, 10]}]}'),
        (["metrics", "--log"], '{"kind": "meta"}\n{"kind": \n'),
        (["run", "--scenario"], '{"name": "no targets"}'),
    ],
    ids=["serve-ScenarioError", "metrics-MetricsError", "run-ScenarioError"],
)
def test_an_input_error_exits_1_in_a_fresh_process(tmp_path, command, content):
    # main imports the error classes it catches only when one is raised, so
    # this runs where no earlier test has imported their modules.
    path = tmp_path / "input"
    path.write_text(content)
    done = subprocess.run(
        [sys.executable, "-m", "lockon.cli", *command, str(path)],
        capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


class TestLatencyCommand:
    def test_unreachable_server_fails(self, capsys):
        # A port from the dynamic range with nothing listening.
        assert main(["latency", "--port", "59999", "--count", "3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_zero_count_rejected(self, capsys):
        assert main(["latency", "--port", "59999", "--count", "0"]) == 1


def test_serve_stops_on_sigterm_with_an_idle_connection_open():
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "lockon.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(process.stdout.readline().strip().rsplit(":", 1)[-1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        conn.request("GET", "/api/records")
        assert conn.getresponse().read() == b'{"records": []}'  # the connection stays open
        process.terminate()
        process.wait(timeout=5)  # raises if the open connection kept the server up
        conn.close()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=5)
        process.stdout.close()


@pytest.mark.parametrize("level_args, request_lines", [([], 0), (["--log-level", "debug"], 3)])
def test_serve_logs_one_line_per_request_at_debug(level_args, request_lines):
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "lockon.cli", "serve", "--port", "0", *level_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(process.stdout.readline().strip().rsplit(":", 1)[-1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
        for method, path, body in [
            ("POST", "/api/crash", b'{"uav_id": "u", "time": 1.0, "position": [0, 0, 0]}'),
            ("GET", "/api/records", None),
            ("GET", "/nowhere", None),
        ]:
            conn.request(method, path, body=body)
            conn.getresponse().read()
        conn.close()
        process.terminate()
        _, stderr = process.communicate(timeout=5)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=5)
        process.stdout.close()
        process.stderr.close()
    lines = [line for line in stderr.splitlines() if "HTTP/1.1" in line]
    assert len(lines) == request_lines
    if request_lines:
        assert lines[0].endswith('http "POST /api/crash HTTP/1.1" 201 34')
        assert lines[2].endswith('http "GET /nowhere HTTP/1.1" 404 42')


@pytest.mark.parametrize("command", [["run", "--scenario", "x"], ["serve"], ["latency", "--port", "1"]])
def test_log_level_defaults_to_warning_and_takes_level_names(command, capsys):
    parser = build_parser()
    assert parser.parse_args(command).log_level == "warning"
    assert parser.parse_args([*command, "--log-level", "debug"]).log_level == "debug"
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([*command, "--log-level", "verbose"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("port_arg", ["0"])
def test_serve_subprocess_round_trip(tmp_path, port_arg):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"targets": [{"id": "T1", "position": [60, 0, 10]}]}))
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "lockon.cli", "serve", "--port", port_arg,
         "--targets", str(targets)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert "listening" in line
        port = int(line.strip().rsplit(":", 1)[-1])
        transport = HttpTransport(port=port)
        deadline = time.monotonic() + 5.0
        status = None
        while time.monotonic() < deadline:
            try:
                status, body = transport.post(
                    "/api/telemetry",
                    json.dumps(
                        {
                            "uav_id": "cli-test",
                            "time": 0.0,
                            "position": {"x": 0, "y": 0, "z": 10},
                            "state": "SEARCH",
                        }
                    ).encode(),
                )
                break
            except Exception:
                time.sleep(0.05)
        assert status == 200
        assert json.loads(body)["target_id"] == "T1"
        transport.close()
    finally:
        process.terminate()
        process.wait(timeout=5)
        process.stdout.close()
