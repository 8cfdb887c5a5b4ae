"""The serving benchmark's hooks still resolve against the library.

``servebench/tracing.py`` wraps the public entry points of every
serving layer by name (``ShardSet.merged``,
``MiningService.prepare`` / ``ingest_prepared`` / ``mine``, the frame
iterators bound in :mod:`repro.service.httpd`, ...), and
``servebench/workloads.py`` imports the service and wire helpers it
drives.  Renaming any of them would otherwise surface only when the
traced benchmark runs; this check fails the test suite instead.

Resolving is not enough: a wrapper that installs but is never called
records nothing.  ``httpd`` must look the decoders up through its
module globals at request time, so a dispatch table built at import
time would keep calling the unwrapped functions.  The second check
therefore drives one body per wire route through a real server and
asserts each request's spans by name; it checks no timing.

Both run in a subprocess because ``install`` patches classes
process-wide.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

PREAMBLE = """
import sys
sys.path[:0] = [{servebench!r}, {src!r}]
import tracing
import workloads
recorder = tracing.Recorder()
tracing.install(recorder)
"""

DRIVE = """
import json
import threading

from repro.service import ServiceHTTPServer, mining_from_spec, service_from_spec

spec = workloads.SPEC
server = ServiceHTTPServer(
    service_from_spec(spec), mining=mining_from_spec(spec["mining"])
)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
client = workloads.Client(server.url)
factory = workloads.BodyFactory(1)
try:
    # v5z is a zlib-compressed columns body
    for kind in ("v1", "v5z", "ndjson", "baskets"):
        ok, _ = workloads.post_body(client, factory.make(kind, rows=64), rid=kind)
        assert ok, kind
    status, _ = client.request("GET", "/estimate?attribute=age", rid="estimate")
    assert status == 200, status
finally:
    client.close()
    server.shutdown()
    thread.join(30)
names = {}
for name, rid, *_ in recorder.drain()["spans"]:
    names.setdefault(rid, set()).add(name)
print(json.dumps({rid: sorted(got) for rid, got in names.items() if rid}))
"""

#: span names each request id must record (others may appear too)
EXPECTED = {
    "v1": {"wire.decode", "shards.prepare", "shards.absorb"},
    "v5z": {"wire.decompress", "wire.decode", "shards.prepare", "shards.absorb"},
    "ndjson": {"wire.decode", "shards.prepare", "shards.absorb"},
    "baskets": {"wire.decode", "support.prepare", "support.absorb"},
    "estimate": {"service.estimate", "shards.merge", "engine.sweep"},
}


def _run(script: str) -> subprocess.CompletedProcess:
    preamble = PREAMBLE.format(
        servebench=str(REPO_ROOT / "servebench"), src=str(REPO_ROOT / "src")
    )
    return subprocess.run(
        [sys.executable, "-c", preamble + script],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tracing_installs_over_the_workload_imports():
    result = _run("")
    assert result.returncode == 0, result.stderr


def test_every_wire_route_records_its_layer_spans():
    result = _run(DRIVE)
    assert result.returncode == 0, result.stderr
    spans = json.loads(result.stdout.splitlines()[-1])
    for rid, expected in EXPECTED.items():
        missing = expected - set(spans.get(rid, ()))
        assert not missing, f"request {rid!r} recorded no {sorted(missing)} span"
