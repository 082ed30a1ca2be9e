"""Regenerate ``golden.json``: the SHA-256 of every benchmark run's event log.

    python3 benchmarks/make_golden.py

Digests cover the three bundled scenarios and every pool entry of
``seed_sweep`` and ``target_queue``. Rerun this only when a change is meant
to alter the event log; the benchmark fails every run whose log differs.
"""

from __future__ import annotations

import json
import sys

from run import BUNDLED, GOLDEN_PATH, SIM_WORKLOADS, all_locked, log_digest

from lockon import runner
from lockon.scenario import load_scenario


def main() -> int:
    golden: dict[str, dict[str, str]] = {"bundled": {}}
    for name in BUNDLED:
        golden["bundled"][name] = log_digest(runner.run(load_scenario(name)))
    for wl in SIM_WORKLOADS.values():
        digests = {}
        for key in range(wl.pool):
            result = runner.run(wl.build(key))
            if wl.all_lock and not all_locked(result):
                raise SystemExit(f"error: {wl.name} pool entry {key} does not lock every target")
            digests[str(key)] = log_digest(result)
        golden[wl.name] = digests
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
