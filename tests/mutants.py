"""Mutation check of the gates: does a fixed test subset notice a changed behaviour?

Each mutant is one exact text replacement in one package module. For each,
the script copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, applies the mutant there and runs ``SUBSET`` with ``pytest -x``.
A mutant is killed when a test fails (the first failing test is printed) or
the run passes its time limit; it survives when the whole subset passes. A
survivor needs a one-line argument in the table for why it is equivalent,
else the script exits 1. So does a mutant whose old text is no longer in its
module exactly once: the table must follow the code.

The unmutated copy runs first. If it fails, no kill would mean anything, and
the script exits 2.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py

It uses the standard library alone, and pytest does not collect it (its name
does not match ``test_*.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# The tests run on each mutant, fastest to fail first: the pinned logs, then
# the paper's criteria, then the modules' own tests.
SUBSET = [
    "tests/test_golden.py",
    "tests/test_acceptance.py",
    "tests/test_autonomy.py",
    "tests/test_vision.py",
    "tests/test_bus.py",
    "tests/test_scenario.py",
    "tests/test_finite.py",
    "tests/test_runner.py",
    "tests/test_world.py",
    "tests/test_metrics.py",
    "tests/test_proxy.py",
]
TIME_LIMIT_S = 600  # a mutant that makes the subset hang this long is killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/lockon
    old: str
    new: str
    equivalent: str | None = None  # why a survivor changes no behaviour


MUTANTS = [
    Mutant("vision: no frames_in_view reset on a hit", "vision.py",
           "if hit is not None:\n            state.frames_in_view = 0\n",
           "if hit is not None:\n            pass\n"),
    Mutant("autonomy: < for <= in the containment test", "autonomy.py",
           "contained = gap <= self._frame_gap_ticks", "contained = gap < self._frame_gap_ticks"),
    Mutant("autonomy: _grace_ticks + 1", "autonomy.py",
           "self._grace_ticks = max(1, round(gains.camera_grace / dt))",
           "self._grace_ticks = max(1, round(gains.camera_grace / dt)) + 1"),
    Mutant("autonomy: a remaining_targets floor of 1", "autonomy.py",
           "max(0, ctx.remaining_targets - 1)", "max(1, ctx.remaining_targets - 1)"),
    Mutant("autonomy: LOCK takes any reply's position", "autonomy.py",
           "            if event.target_id == ctx.current_target:\n"
           "                ctx.target_position = event.target_position",
           "            if True:\n"
           "                ctx.target_position = event.target_position"),
    Mutant("autonomy: advance_lock_timer without _TIMER_EPS", "autonomy.py",
           "return ctx.lock_timer >= gains.lock_duration - _TIMER_EPS",
           "return ctx.lock_timer >= gains.lock_duration"),
    Mutant("autonomy: > for >= in the telemetry due test", "autonomy.py",
           ">= self.telemetry_period - 1e-9", "> self.telemetry_period - 1e-9"),
    Mutant("autonomy: a coincidence radius of 1e-3 for 1e-6", "autonomy.py",
           "rz * rz) < 1e-6:", "rz * rz) < 1e-3:"),
    Mutant("runner: a land cutoff of max_ticks + 2", "runner.py",
           "tick >= max_ticks + 1", "tick >= max_ticks + 2"),
    Mutant("vision: >= for > in the track-window test", "vision.py",
           "** 0.5 > params.track_window", "** 0.5 >= params.track_window"),
    Mutant("scenario: telemetry_period left out of the finiteness check", "scenario.py",
           '"max_time", "telemetry_period", positive=True', '"max_time", positive=True'),
    Mutant("bus: recipients kept in subscription order, not sorted", "bus.py",
           "tuple(sorted((*recipients, client_id)))", "(*recipients, client_id)"),
    Mutant("world: check_finite passes every Vec3", "world.py",
           "finite = v.is_finite() if isinstance(v, Vec3) else math.isfinite(v)",
           "finite = isinstance(v, Vec3) or math.isfinite(v)"),
    Mutant("world: PursuerState keeps a pitch below -pi/2", "world.py",
           "self.pitch = pitch if pitch > -HALF_PI else -HALF_PI", "self.pitch = pitch"),
    Mutant("metrics: < for <= in the streak gap test", "metrics.py",
           "offset_tick - runs[-1][1] <= frame_ticks", "offset_tick - runs[-1][1] < frame_ticks"),
    Mutant("proxy: the first decoded reply is kept for good", "proxy.py",
           "if last is None or data != last[0]:", "if last is None:"),
    Mutant("runner: a locked target's row kept live", "runner.py",
           'live.pop(payload["target_id"], None)', 'live.get(payload["target_id"], None)'),
    Mutant("runner: <= for < in the nearest-target test", "runner.py",
           "norm < best_norm", "norm <= best_norm"),
    Mutant("runner: the squared norm without v * v", "runner.py",
           "norm = u * u + v * v", "norm = u * u"),
    Mutant("runner: live targets projected in reverse order", "runner.py",
           "in live.values():", "in reversed(live.values()):"),
    Mutant("runner: a shutdown grace of 1 tick", "runner.py",
           "SHUTDOWN_GRACE_TICKS = 2", "SHUTDOWN_GRACE_TICKS = 1"),
]


def copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, destination / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def run_subset(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test or why the run stopped) for the subset in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *SUBSET]
    env = {**os.environ, "PYTHONPATH": "src"}
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIME_LIMIT_S} s"
    if done.returncode == 0:
        return True, ""
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED tests/", "ERROR tests/")):
            return False, line.split(" - ")[0]
    return False, f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="lockon-mutants-") as scratch:
        base = Path(scratch, "base")
        copy_tree(base)
        passed, reason = run_subset(base)
        if not passed:
            print(f"the unmutated subset fails ({reason}), so no kill counts", file=sys.stderr)
            return 2
        failures = 0
        for index, mutant in enumerate(MUTANTS):
            tree = Path(scratch, f"mutant-{index}")
            copy_tree(tree)
            module = tree / "src" / "lockon" / mutant.file
            text = module.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: its old text is not in {mutant.file} exactly once")
                failures += 1
                continue
            module.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            survived, killer = run_subset(tree)
            shutil.rmtree(tree)
            if not survived:
                print(f"killed    {mutant.name}: {killer}")
            elif mutant.equivalent:
                print(f"survived  {mutant.name}: equivalent, {mutant.equivalent}")
            else:
                print(f"SURVIVED  {mutant.name}: no test notices it, and no equivalence argument")
                failures += 1
    print(f"{len(MUTANTS)} mutants, {failures} unaccounted for, in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
