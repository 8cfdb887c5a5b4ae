"""What SciPy a process loads, and when.

Every ``ppdm`` command, server process and spawned cluster worker pays
for what the library imports.  ``scipy.stats`` alone adds about half a
second and tens of megabytes per process, and even ``scipy.special``
costs about 0.4 s and 20 MB, because SciPy's array-API shim copies
NumPy's namespace.  The library therefore imports ``scipy.special`` at
its first chi-squared threshold or Gaussian kernel, never at module
scope: a process that only counts, such as a cluster worker on uniform
noise, never loads SciPy.  These tests check which modules a fresh
interpreter holds at each step, not how long anything took, so they
are deterministic.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: prelude of every footprint script: ``checkpoint()`` prints the SciPy
#: modules loaded so far as one JSON line
PRELUDE = """
import json
import sys
sys.path.insert(0, {src!r})


def checkpoint():
    print("CHECKPOINT " + json.dumps(sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )))
"""

#: one worker's whole path on a uniform spec: build, serve, take one
#: labeled body over HTTP, export a sync body; then one estimate
WORKER_PATH = """
import threading
import urllib.request

from repro.service import ServiceHTTPServer, TrainingService, service_from_spec
from repro.service.cluster import export_sync_body
from repro.service.wire import CONTENT_TYPE_COLUMNS, encode_columns

service = service_from_spec({
    "shards": 2, "classes": 2, "intervals": 8,
    "attributes": [
        {"name": "age", "low": 20, "high": 80,
         "noise": "uniform", "privacy": 1.0},
    ],
})
training = TrainingService(service)
server = ServiceHTTPServer(service, "127.0.0.1", 0, training=training)
threading.Thread(target=server.serve_forever, daemon=True).start()
ages = [20.0 + 0.3 * i for i in range(200)]
request = urllib.request.Request(
    server.url + "/ingest",
    data=encode_columns({"age": ages}, classes=[i % 2 for i in range(200)]),
    headers={"Content-Type": CONTENT_TYPE_COLUMNS},
)
with urllib.request.urlopen(request) as reply:
    assert reply.status == 200
export_sync_body(service, training)
server.shutdown()
checkpoint()
service.estimate("age", warn=False)
checkpoint()
"""

GAUSSIAN_SPEC = """
from repro.service import service_from_spec

checkpoint()
service_from_spec({
    "attributes": [
        {"name": "age", "low": 20, "high": 80,
         "noise": "gaussian", "privacy": 1.0},
    ],
})
checkpoint()
"""


def scipy_checkpoints(body: str) -> list:
    """Run ``body`` in a fresh interpreter; SciPy modules per checkpoint."""
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE.format(src=str(SRC)) + body],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return [
        set(json.loads(line.split(" ", 1)[1]))
        for line in result.stdout.splitlines()
        if line.startswith("CHECKPOINT ")
    ]


@pytest.mark.parametrize("module", ["repro.service", "repro.cli"])
def test_import_does_not_load_scipy_stats(module):
    (loaded,) = scipy_checkpoints(f"import {module}\ncheckpoint()\n")
    assert "scipy.stats" not in loaded, f"{module} loaded scipy.stats"


def test_import_loads_no_scipy():
    (loaded,) = scipy_checkpoints(
        "import repro\nimport repro.service\nimport repro.cli\ncheckpoint()\n"
    )
    assert loaded == set()


def test_uniform_worker_path_loads_no_scipy_until_an_estimate():
    worker, after_estimate = scipy_checkpoints(WORKER_PATH)
    assert worker == set()
    assert "scipy.special" in after_estimate
    assert "scipy.stats" not in after_estimate


def test_gaussian_spec_loads_scipy_special_when_built():
    before, built = scipy_checkpoints(GAUSSIAN_SPEC)
    assert before == set()
    assert "scipy.special" in built
    assert "scipy.stats" not in built
