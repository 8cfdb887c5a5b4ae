#!/usr/bin/env python
"""Compare two checkouts on servebench in alternating pairs of runs.

Each pair runs ``servebench/run.py --trace 0`` once in the parent
checkout and once in the change checkout, on the same workload and seed;
the side that goes first alternates from pair to pair, so a drift in the
host's load falls on both sides.  For every end-to-end metric that
``BENCHMARK.json`` declares, the summary gives each side's median and
quartiles, how many pairs the change won, the change of the medians
against the metric's bound, and whether a claimed gain holds: the change
wins at least 9 of every 10 pairs, and its median beats the parent's by
more than the parent's interquartile range.  A run that reads
``correct: false`` or ``failed > 0`` is flagged.  Every run lasts the
``run_seconds`` of the change checkout's ``BENCHMARK.json``, whose
metrics it judges (this repository's when no ``--change`` is given, as
with ``--summarise``).  The tool only runs the benchmark; it never edits
it.

Usage::

    python tools/servebench_pairs.py --parent ../parent --change . \\
        --workload analyst --seeds 11-20 --out pairs.jsonl
    # summarise runs saved earlier, without running anything
    python tools/servebench_pairs.py --summarise pairs.jsonl
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """``"11-20"`` or ``"1,3,5"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced servebench run in ``checkout``; its result line."""
    command = [
        sys.executable, str(checkout / "servebench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return {"correct": False, "failed": -1, "metrics": {},
                "error": done.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(records: list, metrics: list) -> dict:
    """Pair up ``records`` and judge every metric.

    ``records`` are ``{"pair", "side", "seed", "result"}`` dicts, one
    per run; ``metrics`` are ``BENCHMARK.json``'s ``end_to_end``
    entries.  A pair counts for a metric only when both of its sides
    report it (a run that failed to start reports nothing).
    """
    by_pair: dict = {}
    flagged = []
    for record in records:
        by_pair.setdefault(record["pair"], {})[record["side"]] = record
        result = record["result"]
        if not result.get("correct") or result.get("failed", 0) != 0:
            flagged.append(
                f"pair {record['pair']} {record['side']} (seed "
                f"{record['seed']}): correct={result.get('correct')} "
                f"failed={result.get('failed')}"
            )
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        reported = [
            [sides[side]["result"]["metrics"][name]["value"] for side in SIDES]
            for sides in pairs
            if all(name in sides[side]["result"]["metrics"] for side in SIDES)
        ]
        if not reported:
            continue
        values = dict(zip(SIDES, map(list, zip(*reported))))
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = parent[1] - change[1] if lower else change[1] - parent[1]
        worse = -gap / abs(parent[1]) if parent[1] else 0.0
        rows.append({
            "metric": name,
            "parent": parent,
            "change": change,
            "relative": (change[1] - parent[1]) / parent[1] if parent[1] else 0.0,
            "wins": wins,
            "pairs": len(reported),
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
            "claim_holds": (
                wins >= math.ceil(0.9 * len(reported))
                and gap > parent[2] - parent[0]
            ),
        })
    return {"pairs": len(pairs), "metrics": rows, "flagged": flagged}


def format_summary(summary: dict) -> str:
    """The summary as a plain-text table."""
    lines = [
        f"{summary['pairs']} complete pair(s)",
        f"{'metric':<20} {'parent median [q1-q3]':<28} "
        f"{'change median [q1-q3]':<28} {'change':>8} {'wins':>7} "
        f"{'bound':>6}  verdict",
    ]
    for row in summary["metrics"]:
        p, c = row["parent"], row["change"]
        verdict = [
            "within bound" if row["within_bound"] else "PAST BOUND",
            "claim holds" if row["claim_holds"] else "no claim",
        ]
        lines.append(
            f"{row['metric']:<20} "
            f"{f'{p[1]:.4g} [{p[0]:.4g}-{p[2]:.4g}]':<28} "
            f"{f'{c[1]:.4g} [{c[0]:.4g}-{c[2]:.4g}]':<28} "
            f"{row['relative']:>+8.1%} "
            f"{row['wins']:>3}/{row['pairs']:<3} "
            f"{row['bound']:>6.0%}  {', '.join(verdict)}"
        )
    flagged = summary["flagged"]
    lines.append("flagged runs: " + ("none" if not flagged else ""))
    lines.extend(f"  {entry}" for entry in flagged)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="the parent checkout")
    parser.add_argument("--change", type=Path, help="the change checkout")
    parser.add_argument("--workload", choices=("ingest", "analyst", "cluster"))
    parser.add_argument("--seeds", type=parse_seeds, help="e.g. 11-20")
    parser.add_argument("--out", type=Path,
                        help="append every run's record here as JSON lines")
    parser.add_argument("--summarise", type=Path, metavar="JSONL",
                        help="summarise saved records instead of running")
    args = parser.parse_args(argv)

    root = args.change or Path(__file__).resolve().parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    if args.summarise is not None:
        records = [
            json.loads(line)
            for line in args.summarise.read_text().splitlines()
            if line.strip()
        ]
    else:
        if None in (args.parent, args.change, args.workload, args.seeds):
            parser.error("--parent, --change, --workload and --seeds are "
                         "needed to run pairs")
        records = []
        checkouts = {"parent": args.parent.resolve(),
                     "change": args.change.resolve()}
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(
                    checkouts[side], args.workload, seed,
                    benchmark["run_seconds"],
                )
                record = {"pair": pair, "side": side, "seed": seed,
                          "workload": args.workload, "result": result}
                records.append(record)
                if args.out is not None:
                    with args.out.open("a") as out:
                        out.write(json.dumps(record) + "\n")
                print(f"pair {pair} seed {seed} {side}: "
                      f"correct={result.get('correct')} "
                      f"failed={result.get('failed')}", file=sys.stderr)
    summary = summarise(records, benchmark["end_to_end"])
    print(format_summary(summary))
    return 1 if summary["flagged"] else 0


if __name__ == "__main__":
    sys.exit(main())
