"""Write a small class-aware aggregation-service snapshot and its expectations.

``classes2_blocks.json`` in this directory was written by this script run
against the source tree of commit 788e066, whose class-aware snapshots
store one histogram row per class block (unlabeled, then one per class)::

    PYTHONPATH=<checkout of 788e066>/src python tests/fixtures/snapshots/write_snapshot.py

The script also writes ``classes2_blocks.expected.json``: what the
writing service served right after saving, i.e. each attribute's next
estimate (``probs`` and ``n_iterations``), ``n_seen`` and
``n_seen_by_class``.  ``tests/test_service.py`` restores the snapshot
with the current code and compares against it.  Run against a newer
tree, the script writes that tree's snapshot format instead, with the
same expectations.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.service import service_from_spec

HERE = Path(__file__).resolve().parent

SPEC = {
    "shards": 3,
    "classes": 2,
    "intervals": 8,
    "attributes": [
        {"name": "age", "low": 20, "high": 80, "noise": "uniform",
         "privacy": 0.5},
        {"name": "salary", "low": 0, "high": 100, "noise": "gaussian",
         "privacy": 0.5},
    ],
}


def main() -> None:
    service = service_from_spec(SPEC)
    rng = np.random.default_rng(25)
    for step in range(3):
        labels = rng.integers(0, 2, 200)
        batch = {
            "age": rng.uniform(25, 60, labels.size) + 10 * labels,
            "salary": rng.uniform(20, 70, labels.size) + 20 * labels,
        }
        batch = {
            name: service.spec(name).randomizer.randomize(values, seed=rng)
            for name, values in batch.items()
        }
        service.ingest(batch, classes=labels)
        if step == 0:  # a warm start for the snapshot to carry
            for name in service.attributes:
                service.estimate(name, warn=False)
    # unlabeled records of one attribute only
    ages = service.spec("age").randomizer.randomize(
        rng.uniform(30, 50, 50), seed=rng
    )
    service.ingest({"age": ages})
    service.save(HERE / "classes2_blocks.json")
    expected = {}
    for name in service.attributes:
        result = service.estimate(name, warn=False)
        expected[name] = {
            "probs": result.distribution.probs.tolist(),
            "n_iterations": result.n_iterations,
            "n_seen": service.n_seen(name),
            "n_seen_by_class": service.n_seen_by_class(name),
        }
    (HERE / "classes2_blocks.expected.json").write_text(
        json.dumps(expected, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
