"""Deterministic interceptor-UAV mission simulator.

Four cooperating nodes (autonomous controller, vision pipeline, proxy and
mission server) exchange messages over an in-process pub/sub bus under a
lockstep scheduler, reproducing the SEARCH/LOCK mission protocol, the
detect-then-track camera handoff, and the characteristic failure on targets
hovering motionless in the air.

Each public name is imported from its module on first use (PEP 562), so that
``import lockon``, or a command such as ``lockon serve``, loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "CameraParams": "world",
    "ConfusionCounts": "metrics",
    "ControlGains": "autonomy",
    "Envelope": "bus",
    "MessageBus": "bus",
    "MissionState": "autonomy",
    "MissionStore": "server",
    "PursuerState": "world",
    "RunResult": "runner",
    "Scenario": "scenario",
    "TargetAssignment": "server",
    "TrajectoryKind": "world",
    "TrajectorySpec": "world",
    "Vec3": "world",
    "VisionParams": "vision",
    "confusion_metrics": "metrics",
    "latency_harness": "latency",
    "load_scenario": "scenario",
    "run": "runner",
    "summarize_run": "metrics",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
