"""Command line interface: run scenarios, compute metrics, serve, measure latency.

The simulator's modules and the latency client are imported by the commands
that use them, when they run, so that ``lockon serve`` loads the mission
server and its payloads alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .payloads import read_json
from .server import MissionStore, TargetAssignment, make_http_server, parse_targets


def _cmd_run(args: argparse.Namespace) -> int:
    from .runner import event_log_to_jsonl, run
    from .scenario import load_scenario

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    result = run(scenario)
    if args.log:
        Path(args.log).write_text(event_log_to_jsonl(result.event_log), encoding="utf-8")
    if args.out:
        Path(args.out).write_text(json.dumps(result.as_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"scenario {scenario.name} (seed {scenario.seed}): terminated by {result.terminated_by}")
    for outcome in result.report.per_target:
        if outcome.locked:
            print(f"  {outcome.target_id}: locked after {outcome.time_to_lock:.2f} s")
        else:
            print(
                f"  {outcome.target_id}: failed ({outcome.reason}), "
                f"max containment {outcome.max_containment_s:.2f} s"
            )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import ConfusionCounts, confusion_metrics, parse_jsonl, summarize_run

    if args.log:
        entries = parse_jsonl(Path(args.log).read_text(encoding="utf-8"))
        report = summarize_run(entries)
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    if args.tp is None or args.fp is None or args.fn is None:
        print("metrics: provide --log FILE or all of --tp --fp --fn", file=sys.stderr)
        return 2
    result = confusion_metrics(ConfusionCounts(tp=args.tp, fp=args.fp, fn=args.fn))
    print(json.dumps(result.as_dict()))
    return 0


def _load_targets_file(path: str) -> list[TargetAssignment]:
    try:
        return read_json(Path(path).read_bytes(), parse_targets)
    except ValueError as exc:
        from .scenario import ScenarioError

        raise ScenarioError(f"{path}: {exc}") from exc


def _cmd_serve(args: argparse.Namespace) -> int:
    targets = _load_targets_file(args.targets) if args.targets else []
    store = MissionStore(targets)
    httpd = make_http_server(store, port=args.port)
    try:  # a signal that comes just after the line, too, closes the server
        print(f"mission server listening on 127.0.0.1:{httpd.server_address[1]}", flush=True)
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from .latency import latency_harness

    report = latency_harness(port=args.port, payload_bytes=args.bytes, n_requests=args.count)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _port(text: str) -> int:
    """A --port value: an integer in 0-65535."""
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"{text!r} is not a port number in 0-65535")
    return port


LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockon", description="Deterministic interceptor-UAV mission simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to completion")
    p_run.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="write the run report JSON here")
    p_run.add_argument("--log", default=None, help="write the JSONL event log here")
    p_run.set_defaults(func=_cmd_run)

    p_metrics = sub.add_parser("metrics", help="detection metrics or run-log summary")
    p_metrics.add_argument("--tp", type=int, default=None)
    p_metrics.add_argument("--fp", type=int, default=None)
    p_metrics.add_argument("--fn", type=int, default=None)
    p_metrics.add_argument("--log", default=None, help="summarize a JSONL event log")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_serve = sub.add_parser("serve", help="run the mission server on loopback HTTP")
    p_serve.add_argument("--port", type=_port, default=8080)
    p_serve.add_argument("--targets", default=None, help="JSON file seeding the target queue")
    p_serve.set_defaults(func=_cmd_serve)

    p_latency = sub.add_parser("latency", help="measure telemetry round-trip latency")
    p_latency.add_argument("--port", type=_port, required=True)
    p_latency.add_argument("--bytes", type=int, default=500)
    p_latency.add_argument("--count", type=int, default=1000)
    p_latency.add_argument("--out", default=None)
    p_latency.set_defaults(func=_cmd_latency)

    for sub_parser in (p_run, p_serve, p_latency):
        sub_parser.add_argument(
            "--log-level",
            choices=LOG_LEVELS,
            default="warning",
            help="least severe log messages shown on stderr (debug shows each server request)",
        )
    return parser


def _reported_errors() -> tuple[type[Exception], ...]:
    """The errors ``main`` prints as ``error: ...`` and exit status 1.

    ``main`` calls this only while it matches a raised exception, so a
    command that succeeds imports none of these modules for their errors.
    """
    from .latency import LatencyHarnessError
    from .metrics import MetricsError
    from .scenario import ScenarioError

    return ScenarioError, MetricsError, LatencyHarnessError, ValueError, OSError


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "log_level"):
        logging.basicConfig(level=args.log_level.upper())
    try:
        return args.func(args)
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
