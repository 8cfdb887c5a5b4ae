"""Tests for the paired servebench comparison (tools/servebench_pairs.py).

The tool runs servebench, which takes minutes; these tests pin its
summariser on canned result lines, so the verdicts it prints (medians,
quartiles, wins, bounds, the claim rule and flagged runs) cannot drift.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOL = REPO_ROOT / "tools" / "servebench_pairs.py"
spec = importlib.util.spec_from_file_location("servebench_pairs", TOOL)
pairs_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs_tool)

METRICS = [
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
]


def result(rate, p50, *, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "requests_per_s": {"value": rate, "unit": "1/s"},
            "p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def records(parent, change, flags=None):
    """One record per side per pair, from ``(rate, p50)`` tuples;
    ``flags[(pair, side)]`` overrides that run's verdict fields."""
    flags = flags or {}
    out = []
    for pair, (old, new) in enumerate(zip(parent, change)):
        for side, values in (("parent", old), ("change", new)):
            out.append({"pair": pair, "side": side, "seed": 11 + pair,
                        "result": result(*values, **flags.get((pair, side), {}))})
    return out


PARENT = [(20.0 + 0.1 * i, 44.0) for i in range(10)]


def test_a_clear_gain_holds_the_claim():
    change = [(21.0 + 0.1 * i, 44.0) for i in range(10)]
    summary = pairs_tool.summarise(records(PARENT, change), METRICS)
    rate, p50 = summary["metrics"]
    assert summary["pairs"] == 10 and summary["flagged"] == []
    assert rate["parent"] == pytest.approx((20.225, 20.45, 20.675))
    assert rate["change"] == pytest.approx((21.225, 21.45, 21.675))
    assert rate["wins"] == 10 and rate["claim_holds"] and rate["within_bound"]
    assert rate["relative"] == pytest.approx(1.0 / 20.45)
    # a tie is no win, and no claim
    assert p50["wins"] == 0 and not p50["claim_holds"] and p50["within_bound"]


def test_eight_wins_of_ten_is_no_claim():
    change = [(21.0 + 0.1 * i, 44.0) for i in range(10)]
    change[3] = change[7] = (19.0, 44.0)
    rate = pairs_tool.summarise(records(PARENT, change), METRICS)["metrics"][0]
    assert rate["wins"] == 8 and not rate["claim_holds"]


def test_a_gap_inside_the_parents_spread_is_no_claim():
    change = [(old + 0.2, 44.0) for old, _ in PARENT]  # IQR is 0.45
    rate = pairs_tool.summarise(records(PARENT, change), METRICS)["metrics"][0]
    assert rate["wins"] == 10 and not rate["claim_holds"]


def test_a_regression_past_the_bound_is_reported():
    change = [(rate, 52.0) for rate, _ in PARENT]  # p50 +18%, bound 15%
    summary = pairs_tool.summarise(records(PARENT, change), METRICS)
    p50 = summary["metrics"][1]
    assert not p50["within_bound"] and p50["wins"] == 0
    assert "PAST BOUND" in pairs_tool.format_summary(summary)


def test_incorrect_and_failing_runs_are_flagged_and_half_pairs_dropped():
    flags = {(2, "change"): {"correct": False}, (5, "parent"): {"failed": 3}}
    canned = records(PARENT, PARENT, flags)
    canned.append({"pair": 10, "side": "parent", "seed": 21,
                   "result": result(30.0, 44.0)})
    summary = pairs_tool.summarise(canned, METRICS)
    assert summary["pairs"] == 10
    assert summary["flagged"] == [
        "pair 2 change (seed 13): correct=False failed=0",
        "pair 5 parent (seed 16): correct=True failed=3",
    ]
    text = pairs_tool.format_summary(summary)
    assert "pair 2 change (seed 13)" in text


def test_summarise_mode_reads_saved_records(tmp_path):
    saved = tmp_path / "pairs.jsonl"
    change = [(21.0 + 0.1 * i, 44.0) for i in range(10)]
    saved.write_text(
        "".join(json.dumps(r) + "\n" for r in records(PARENT, change))
    )
    done = subprocess.run(
        [sys.executable, str(TOOL), "--summarise", str(saved)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "10 complete pair(s)"
    [rate] = [line for line in lines if line.startswith("requests_per_s")]
    assert "10/10" in rate and "claim holds" in rate
    assert lines[-1] == "flagged runs: none"


def test_seed_ranges():
    assert pairs_tool.parse_seeds("11-14") == [11, 12, 13, 14]
    assert pairs_tool.parse_seeds("1,3-4") == [1, 3, 4]
