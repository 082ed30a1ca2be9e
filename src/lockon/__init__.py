"""Deterministic interceptor-UAV mission simulator.

Four cooperating nodes (autonomous controller, vision pipeline, proxy and
mission server) exchange messages over an in-process pub/sub bus under a
lockstep scheduler, reproducing the SEARCH/LOCK mission protocol, the
detect-then-track camera handoff, and the characteristic failure on targets
hovering motionless in the air.
"""

from .autonomy import ControlGains, MissionState
from .bus import Envelope, MessageBus
from .metrics import ConfusionCounts, confusion_metrics, summarize_run
from .runner import RunResult, run
from .scenario import Scenario, load_scenario
from .server import MissionStore, TargetAssignment, latency_harness
from .vision import VisionParams
from .world import CameraParams, PursuerState, TrajectoryKind, TrajectorySpec, Vec3

__version__ = "0.1.0"

__all__ = [
    "CameraParams",
    "ConfusionCounts",
    "ControlGains",
    "Envelope",
    "MessageBus",
    "MissionState",
    "MissionStore",
    "PursuerState",
    "RunResult",
    "Scenario",
    "TargetAssignment",
    "TrajectoryKind",
    "TrajectorySpec",
    "Vec3",
    "VisionParams",
    "confusion_metrics",
    "latency_harness",
    "load_scenario",
    "run",
    "summarize_run",
    "__version__",
]
