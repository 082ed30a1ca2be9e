"""The package's lazy exports, and the modules ``import lockon``, ``lockon serve`` and
``lockon metrics --log`` load.

Each check runs in a new interpreter: in the test process, earlier tests
have already imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lockon
from lockon.runner import event_log_to_jsonl, run
from lockon.scenario import load_scenario

ENV = {**os.environ, "PYTHONPATH": str(Path(lockon.__file__).parents[1])}

# Prints the loaded modules of the package, as the last line of output.
LOADED = 'print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "lockon")))'


def fresh(code: str, *args: str):
    """The JSON value that ``code`` prints last, run with ``args`` in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_lockon_loads_no_submodule():
    assert fresh(f"import json, sys\nimport lockon\n{LOADED}") == ["lockon"]


SERVE = """
import json, sys
from http.server import ThreadingHTTPServer

def serve_forever(httpd):  # answer one request of each route in place of serving
    for target, body in [
        ("/api/seed", b'{"targets": [{"id": "T2", "position": [0, 60, 10]}]}'),
        ("/api/telemetry", b'{"uav_id": "u", "time": 0.0, "position": [0, 0, 10], "state": "SEARCH"}'),
        ("/api/lock", b'{"uav_id": "u", "target_id": "T2", "lock_start_tick": 0, '
                      b'"lock_end_tick": 200, "position": [0, 0, 10]}'),
        ("/api/crash", b'{"uav_id": "u", "time": 1.0, "position": [0, 0, 0]}'),
    ]:
        assert httpd.store.dispatch("POST", target, body).status in (200, 201), target
    assert httpd.store.dispatch("GET", "/api/records?kind=Lock").status == 200

ThreadingHTTPServer.serve_forever = serve_forever
from lockon.cli import main
assert main(["serve", "--port", "0", "--targets", sys.argv[1]]) == 0
"""


def test_serve_loads_the_server_and_its_payloads_only(tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text('{"targets": [{"id": "T1", "position": [60, 0, 10]}]}')
    assert fresh(SERVE + LOADED, str(targets)) == [
        "lockon", "lockon.cli", "lockon.payloads", "lockon.server", "lockon.world"
    ]


METRICS = """
import json, sys
from lockon.cli import main
assert main(["metrics", "--log", sys.argv[1]]) == 0
"""


def test_metrics_log_loads_the_log_reader_and_its_payloads_only(tmp_path):
    log = tmp_path / "moving_target.jsonl"
    log.write_text(event_log_to_jsonl(run(load_scenario("moving_target")).event_log))
    assert fresh(METRICS + LOADED, str(log)) == [
        "lockon", "lockon.bus", "lockon.cli", "lockon.metrics", "lockon.payloads", "lockon.server",
        "lockon.world",
    ]


@pytest.mark.parametrize(
    "resolve",
    ["found = {name: getattr(lockon, name) for name in lockon.__all__}",
     'found = {}\nexec("from lockon import *", found)'],
    ids=["attribute", "star-import"],
)
def test_every_exported_name_resolves_to_its_module_attribute(resolve):
    code = f"""
import json, sys
import lockon
{resolve}
missing = [name for name in lockon.__all__ if name not in found]
# Each class or function is the object of that name in the module that defines it.
wrong = [
    name for name in lockon.__all__
    if name != "__version__" and getattr(sys.modules[found[name].__module__], name) is not found[name]
]
print(json.dumps([missing, wrong, found["__version__"], lockon.run is lockon.runner.run]))
"""
    assert fresh(code) == [[], [], "0.1.0", True]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        lockon.nope  # noqa: B018
    assert not hasattr(lockon, "latency_harness_error")


def test_dir_lists_every_exported_name():
    assert set(lockon.__all__) <= set(dir(lockon))
