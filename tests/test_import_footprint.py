"""Importing the library does not load ``scipy.stats``.

Every ``ppdm`` command, server process and spawned cluster worker pays
for what the library imports.  ``scipy.stats`` alone adds about half a
second and tens of megabytes per process, and the library needs only a
few of the ``scipy.special`` kernels it wraps.  This checks which
modules a fresh interpreter holds after the imports, not how long they
took, so it is deterministic.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import {module}
print("scipy.stats" in sys.modules)
"""


@pytest.mark.parametrize("module", ["repro.service", "repro.cli"])
def test_import_does_not_load_scipy_stats(module):
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=str(SRC), module=module)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False", f"{module} loaded scipy.stats"
