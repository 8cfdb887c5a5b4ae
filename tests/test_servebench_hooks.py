"""The serving benchmark's hooks still resolve against the library.

``servebench/tracing.py`` wraps the public entry points of every
serving layer by name (``ShardSet.merged``,
``MiningService.prepare`` / ``ingest_prepared`` / ``mine``, the frame
iterators bound in :mod:`repro.service.httpd`, ...), and
``servebench/workloads.py`` imports the service and wire helpers it
drives.  Renaming any of them would otherwise surface only when the
traced benchmark runs; this check fails the test suite instead.  It
runs in a subprocess because ``install`` patches classes process-wide.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{servebench!r}, {src!r}]
import tracing
import workloads
tracing.install(tracing.Recorder())
"""


def test_tracing_installs_over_the_workload_imports():
    script = SCRIPT.format(
        servebench=str(REPO_ROOT / "servebench"), src=str(REPO_ROOT / "src")
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
