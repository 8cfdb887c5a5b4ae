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
time would keep calling the unwrapped functions.  The other checks
therefore drive one body per wire route, and one ``/train`` and one
``/mine``, through a real server and assert each request's spans by
name; they check no timing.

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

#: serve a class-aware server with training and mining, post
#: ``{bodies}`` to /ingest, make the JSON ``{calls}``, and print each
#: request id's span names
DRIVE = """
import json
import threading

from repro.service import (
    ServiceHTTPServer, TrainingService, mining_from_spec, service_from_spec,
)

spec = workloads.SPEC
service = service_from_spec(spec)
server = ServiceHTTPServer(
    service,
    training=TrainingService(service),
    mining=mining_from_spec(spec["mining"]),
)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
client = workloads.Client(server.url)
factory = workloads.BodyFactory(1)
try:
    for kind in {bodies}:
        ok, _ = workloads.post_body(client, factory.make(kind, rows=64), rid=kind)
        assert ok, kind
    for method, path, payload, rid in {calls}:
        status, _ = client.json(method, path, payload, rid=rid)
        assert status == 200, (rid, status)
finally:
    client.close()
    server.shutdown()
    thread.join(30)
names = {{}}
for name, rid, *_ in recorder.drain()["spans"]:
    names.setdefault(rid, set()).add(name)
print(json.dumps({{rid: sorted(got) for rid, got in names.items() if rid}}))
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


def _assert_spans(result, expected_spans: dict) -> None:
    assert result.returncode == 0, result.stderr
    spans = json.loads(result.stdout.splitlines()[-1])
    for rid, expected in expected_spans.items():
        missing = expected - set(spans.get(rid, ()))
        assert not missing, f"request {rid!r} recorded no {sorted(missing)} span"


def test_every_wire_route_records_its_layer_spans():
    # v5z is a zlib-compressed columns body
    script = DRIVE.format(
        bodies='("v1", "v5z", "ndjson", "baskets")',
        calls='[("GET", "/estimate?attribute=age", None, "estimate")]',
    )
    _assert_spans(_run(script), EXPECTED)


def test_train_and_mine_record_their_spans():
    """The analyst's training.train and mining.mine layers wrap
    TrainingService.train and MiningService.mine by name."""
    script = DRIVE.format(
        bodies='("v2", "baskets")',  # v2: labeled columns, every attribute
        calls=(
            '[("POST", "/train", workloads.TRAIN_BODY, "train"),'
            ' ("POST", "/mine", workloads.MINE_BODY, "mine")]'
        ),
    )
    _assert_spans(
        _run(script), {"train": {"training.train"}, "mine": {"mining.mine"}}
    )
