"""Mission-server launcher for the ``server_http`` workload.

Runs ``lockon serve --port 0`` in this process, optionally under the
per-layer tracer. SIGTERM stops the server the way Ctrl-C does; with
``--trace 1`` the tracer's totals are then printed as one JSON line after
the server's own "listening" line. ``--reference 1`` serves the fixed
reference server of ``speed.py`` instead of lockon.

    python3 benchmarks/serve.py --trace 0
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import checkout  # noqa: F401  (makes ``lockon`` the checkout's own sources)
import layers
import speed
from lockon import cli


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A parent started in the background may pass SIGINT down as ignored, so
    # stopping relies on SIGTERM instead.
    signal.signal(signal.SIGTERM, _interrupt)
    if args.reference:
        return speed.serve_reference()
    if not args.trace:
        return cli.main(["serve", "--port", "0"])
    with layers.Tracer() as tracer:
        status = cli.main(["serve", "--port", "0"])
    if tracer.missing:
        print(f"not traced (attribute not found): {', '.join(tracer.missing)}", file=sys.stderr)
    print(json.dumps(tracer.snapshot()), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
