"""What SciPy (and ``numpy.ma``) a process loads, and when.

Every ``ppdm`` command, server process and cluster worker pays for what
the library imports.  ``scipy.stats`` alone adds about half a
second and tens of megabytes per process, and even ``scipy.special``
costs about 0.35 s and 20 MB, because SciPy's array-API shim copies
NumPy's namespace.  The library therefore never imports SciPy at module
scope.  Chi-squared critical values come from a table of SciPy's values
for dof 1 to 512, so a process on uniform noise never loads SciPy: not
a cluster worker that only counts, and not a server that estimates,
trains and mines.  ``scipy.special`` loads when a Gaussian spec is built
and at the first threshold past the table.  These tests check which
modules a fresh interpreter holds at each step, and which of a fresh
cluster's processes map a SciPy extension, not how long anything took,
so they are deterministic.  A server that trains and mines also never
loads ``numpy.ma`` (1 MB, imported by ``np.unique`` on NumPy 2.4) unless
plain ``import numpy`` does.  The cluster check runs here, not in the
cluster suite, because a worker forked from a test process maps
whatever that process has loaded.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import http_request

SRC = Path(__file__).resolve().parents[1] / "src"

#: prelude of every footprint script: ``checkpoint()`` prints the SciPy
#: modules loaded so far as one JSON line, ``masked()`` whether
#: ``numpy.ma`` is loaded, and ``http_request`` is the suite's loopback
#: helper (its source, since importing conftest would load pytest)
PRELUDE = """
import http.client
import json
import sys
from urllib.parse import urlsplit
sys.path.insert(0, {src!r})


def checkpoint():
    print("CHECKPOINT " + json.dumps(sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )))


def masked():
    print("MASKED " + json.dumps("numpy.ma" in sys.modules))
"""

#: one worker's whole path on a uniform spec: build, serve, take one
#: labeled body over HTTP, export a sync body; then one estimate
WORKER_PATH = """
import threading

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
status, _ = http_request(
    server.url + "/ingest",
    encode_columns({"age": ages}, classes=[i % 2 for i in range(200)]),
    content_type=CONTENT_TYPE_COLUMNS,
)
assert status == 200
export_sync_body(service, training)
server.shutdown()
checkpoint()
service.estimate("age", warn=False)
checkpoint()
"""

#: one single server's whole path on a uniform spec with classes and
#: mining: a labeled v2 body and a basket body over HTTP, then every
#: read an analyst makes (estimates, all three training strategies, a
#: rule set)
SERVER_PATH = """
import json
import threading

import numpy as np

from repro.service import (
    ServiceHTTPServer, TrainingService, mining_from_spec, service_from_spec,
)
from repro.service.wire import (
    CONTENT_TYPE_BASKETS, CONTENT_TYPE_COLUMNS, encode_baskets, encode_columns,
)

spec = {
    "shards": 2, "classes": 2, "intervals": 8,
    "attributes": [
        {"name": "age", "low": 20, "high": 80,
         "noise": "uniform", "privacy": 1.0},
        {"name": "salary", "low": 0, "high": 100,
         "noise": "uniform", "privacy": 0.5},
    ],
    "mining": {"items": 6, "keep_prob": 0.9, "shards": 2},
}
service = service_from_spec(spec)
server = ServiceHTTPServer(
    service, "127.0.0.1", 0, training=TrainingService(service),
    mining=mining_from_spec(spec["mining"]),
)
threading.Thread(target=server.serve_forever, daemon=True).start()


def call(path, body=None, content_type="application/json"):
    status, _ = http_request(server.url + path, body, content_type=content_type)
    assert status == 200, (path, status)


rows = range(400)
call("/ingest", encode_columns(
    {"age": [20.0 + (37 * i) % 60 for i in rows],
     "salary": [(53 * i) % 100 + 0.5 for i in rows]},
    classes=[i % 2 for i in rows],
), CONTENT_TYPE_COLUMNS)
baskets = np.array([[(i + j) % 3 == 0 for j in range(6)] for i in range(300)])
call("/ingest", encode_baskets(baskets), CONTENT_TYPE_BASKETS)
for name in ("age", "salary"):
    call("/estimate?attribute=" + name)
for strategy in ("global", "byclass", "local"):
    call("/train", json.dumps({"strategy": strategy}).encode())
call("/mine", json.dumps(
    {"min_support": 0.2, "min_confidence": 0.4}
).encode())
server.shutdown()
checkpoint()
masked()
"""

#: a uniform two-worker cluster: one body at each worker and one
#: estimate at the coordinator; then, per process, whether it maps
#: scipy.special's extension
CLUSTER_PATH = """
import os

from repro.service.cluster import start_cluster
from repro.service.wire import CONTENT_TYPE_COLUMNS, encode_columns

supervisor = start_cluster({
    "shards": 2, "intervals": 8,
    "attributes": [
        {"name": "age", "low": 20, "high": 80,
         "noise": "uniform", "privacy": 1.0},
    ],
}, n_workers=2, sync_interval=60.0)
try:
    supervisor.wait_ready(timeout=60.0)
    for worker, url in enumerate(supervisor.worker_urls()):
        status, _ = http_request(
            url + "/ingest",
            encode_columns(
                {"age": [20.0 + (7 * i + worker) % 60 for i in range(200)]}
            ),
            content_type=CONTENT_TYPE_COLUMNS,
        )
        assert status == 200
    estimate = supervisor.url + "/estimate?attribute=age"
    assert http_request(estimate)[0] == 200
    pids = [os.getpid()] + [process.pid for process in supervisor.processes]
    print("MAPPED " + json.dumps([
        "scipy/special" in open(f"/proc/{pid}/maps").read() for pid in pids
    ]))
finally:
    supervisor.shutdown()
"""

#: a grid past the critical-value table: 600 equal cells are dof 599
PAST_THE_TABLE = """
import numpy as np

from repro.core.engine import _chi2_fit

checkpoint()
counts = np.full(600, 10.0)
_chi2_fit(counts, counts)
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


def fresh_run(body: str, tags=("CHECKPOINT", "MAPPED", "MASKED")) -> dict:
    """Run ``body`` in a fresh interpreter; per tag, the JSON after it."""
    result = subprocess.run(
        [
            sys.executable, "-c",
            PRELUDE.format(src=str(SRC)) + inspect.getsource(http_request)
            + body,
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    outputs: dict = {tag: [] for tag in tags}
    for line in result.stdout.splitlines():
        tag, _, payload = line.partition(" ")
        if tag in outputs:
            outputs[tag].append(json.loads(payload))
    return outputs


def fresh_output(body: str, tag: str) -> list:
    """Run ``body`` in a fresh interpreter; the JSON after each ``tag``."""
    return fresh_run(body)[tag]


def scipy_checkpoints(body: str) -> list:
    """Run ``body`` in a fresh interpreter; SciPy modules per checkpoint."""
    return [set(loaded) for loaded in fresh_output(body, "CHECKPOINT")]


@pytest.mark.parametrize("module", ["repro.service", "repro.cli"])
def test_import_does_not_load_scipy_stats(module):
    (loaded,) = scipy_checkpoints(f"import {module}\ncheckpoint()\n")
    assert "scipy.stats" not in loaded, f"{module} loaded scipy.stats"


def test_import_loads_no_scipy():
    (loaded,) = scipy_checkpoints(
        "import repro\nimport repro.service\nimport repro.cli\ncheckpoint()\n"
    )
    assert loaded == set()


def test_uniform_worker_path_loads_no_scipy():
    worker, after_estimate = scipy_checkpoints(WORKER_PATH)
    assert worker == set()
    assert after_estimate == set()


def test_uniform_server_path_loads_no_scipy():
    """Nor ``numpy.ma``, unless plain ``import numpy`` already does."""
    served = fresh_run(SERVER_PATH)
    assert served["CHECKPOINT"] == [[]]
    (numpy_alone,) = fresh_output("import numpy\nmasked()\n", "MASKED")
    assert numpy_alone or served["MASKED"] == [False]


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc")
def test_uniform_cluster_maps_no_scipy_special():
    (mapped,) = fresh_output(CLUSTER_PATH, "MAPPED")
    assert mapped == [False, False, False]  # coordinator, worker 0, worker 1


def test_threshold_past_the_table_loads_scipy_special_only():
    before, past = scipy_checkpoints(PAST_THE_TABLE)
    assert before == set()
    assert "scipy.special" in past
    assert "scipy.stats" not in past


def test_gaussian_spec_loads_scipy_special_when_built():
    before, built = scipy_checkpoints(GAUSSIAN_SPEC)
    assert before == set()
    assert "scipy.special" in built
    assert "scipy.stats" not in built
