"""Artifact comparison and CI regression gating.

``ppdm bench compare BASELINE/ CANDIDATE/`` diffs two directories of
``BENCH_*.json`` artifacts produced by :mod:`repro.bench.runner`:

* **metrics** are deterministic at fixed seed, so any drift beyond a
  (tight) relative tolerance is a failure — a changed accuracy or L1
  number means the computation changed, not the weather;
* **wall clock** is judged against a slack factor
  (``--fail-on-regression 1.3x``), and can be demoted to a warning on
  shared CI runners where neighbours distort timings;
* **floors** declared on ``@experiment(floors=...)`` are checked on
  every candidate artifact, with or without a baseline: a ``timing``
  value below its floor, or a declared key the run did not record, is
  always a failure — ``--wall-warn-only`` demotes only the baseline
  wall ratio;
* a baseline experiment missing from the candidate is a failure
  (deleting a benchmark must be explicit), a new candidate experiment is
  informational.

The comparator never looks at ``host`` info except to annotate output:
artifacts from different machines compare fine, the tolerance semantics
just shift to the caller's choice of factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from repro.bench.artifacts import load_artifact_dir
from repro.bench.registry import _natural_key
from repro.exceptions import BenchmarkError
from repro.experiments.reporting import format_table

__all__ = [
    "Finding",
    "ComparisonReport",
    "compare_artifacts",
    "compare_dirs",
    "parse_wall_factor",
]

#: findings severities, in escalation order
SEVERITIES = ("info", "warn", "fail")

_FACTOR_PATTERN = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*x?\s*$")


def parse_wall_factor(text) -> float:
    """Parse a slack factor like ``"1.3x"`` (the ``x`` is optional).

    Factors below 1 would flag *improvements* as regressions, so they
    are rejected.
    """
    if isinstance(text, (int, float)):
        factor = float(text)
    else:
        match = _FACTOR_PATTERN.match(str(text))
        if not match:
            raise BenchmarkError(
                f"invalid regression factor {text!r}; expected e.g. '1.3x'"
            )
        factor = float(match.group(1))
    if factor < 1.0:
        raise BenchmarkError(f"regression factor must be >= 1, got {factor:g}")
    return factor


@dataclass(frozen=True)
class Finding:
    """One comparator observation about one experiment."""

    experiment_id: str
    kind: str  # missing | added | failed | config | metric | wall | floor
    severity: str  # info | warn | fail
    detail: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise BenchmarkError(f"unknown severity {self.severity!r}")


@dataclass
class ComparisonReport:
    """Outcome of one baseline/candidate comparison."""

    wall_factor: float
    metric_rtol: float
    findings: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # (id, base wall, cand wall, verdict)

    @property
    def failures(self) -> tuple:
        return tuple(f for f in self.findings if f.severity == "fail")

    @property
    def warnings(self) -> tuple:
        return tuple(f for f in self.findings if f.severity == "warn")

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        """Human-readable summary (the machine answer is :attr:`passed`)."""
        table = format_table(
            ("experiment", "base wall s", "cand wall s", "ratio", "verdict"),
            self.rows,
            title=(
                f"bench compare: wall slack {self.wall_factor:g}x, "
                f"metric rtol {self.metric_rtol:g}"
            ),
        )
        lines = [table]
        for finding in self.findings:
            lines.append(
                f"[{finding.severity.upper()}] {finding.experiment_id} "
                f"({finding.kind}): {finding.detail}"
            )
        lines.append(
            "result: "
            + (
                "PASS"
                if self.passed
                else f"FAIL ({len(self.failures)} failing finding(s))"
            )
            + (f", {len(self.warnings)} warning(s)" if self.warnings else "")
        )
        return "\n".join(lines)


def _numbers_differ(a, b, rtol: float) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        # NaN == NaN for gating purposes; NaN vs anything else is drift
        # (a bare < comparison would silently call them equal)
        return math.isnan(a) != math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a != b
    return abs(a - b) > rtol * max(abs(a), abs(b)) + 1e-12


def _compare_metrics(base: dict, cand: dict, rtol: float) -> list:
    """Per-key drift descriptions between two metric dicts."""
    problems = []
    for key in sorted(set(base) | set(cand)):
        if key not in cand:
            problems.append(f"metric {key!r} disappeared")
        elif key not in base:
            problems.append(f"metric {key!r} appeared")
        else:
            a, b = base[key], cand[key]
            numeric = isinstance(a, (int, float)) and isinstance(b, (int, float))
            if numeric and not isinstance(a, bool) and not isinstance(b, bool):
                if _numbers_differ(a, b, rtol):
                    problems.append(f"{key}: {a!r} -> {b!r}")
            elif a != b:
                problems.append(f"{key}: {a!r} -> {b!r}")
    return problems


def _floor_misses(artifact, floors: dict) -> list:
    """Descriptions of the declared floors ``artifact`` does not meet."""
    misses = []
    for key, minimum in sorted(floors.items()):
        value = artifact.timing.get(key)
        if value is None:
            misses.append(f"floor key {key!r} was not recorded")
        elif not value >= minimum:  # NaN misses too
            misses.append(f"{key} = {value:.3g} is below its floor {minimum:g}")
    return misses


def compare_artifacts(
    baseline: dict,
    candidate: dict,
    *,
    wall_factor: float = 1.3,
    metric_rtol: float = 1e-9,
    wall_action: str = "fail",
    floors: dict = None,
) -> ComparisonReport:
    """Compare two id-keyed artifact mappings.

    ``wall_action`` is ``"fail"`` or ``"warn"`` — the severity a
    wall-clock regression beyond ``wall_factor`` is reported at (metric
    drift is always a failure).  ``floors`` maps an experiment id to its
    declared ``{timing key: minimum}``; every candidate artifact is
    checked against it, and a miss always fails.
    """
    if wall_action not in ("fail", "warn"):
        raise BenchmarkError(
            f"wall_action must be 'fail' or 'warn', got {wall_action!r}"
        )
    wall_factor = parse_wall_factor(wall_factor)
    report = ComparisonReport(wall_factor=wall_factor, metric_rtol=metric_rtol)
    floors = floors or {}

    for experiment_id in sorted(set(baseline) | set(candidate), key=_natural_key):
        base = baseline.get(experiment_id)
        cand = candidate.get(experiment_id)
        if cand is None:
            report.findings.append(
                Finding(
                    experiment_id,
                    "missing",
                    "fail",
                    "present in baseline but not in candidate",
                )
            )
            report.rows.append((experiment_id, _wall(base), "-", "-", "missing"))
            continue
        misses = _floor_misses(cand, floors.get(experiment_id, {}))
        for miss in misses:
            report.findings.append(Finding(experiment_id, "floor", "fail", miss))
        if base is None:
            report.findings.append(
                Finding(
                    experiment_id,
                    "added",
                    "info",
                    "new experiment (no baseline to compare against)",
                )
            )
            verdict = "below-floor" if misses else "new"
            report.rows.append((experiment_id, "-", _wall(cand), "-", verdict))
            continue

        verdict = "below-floor" if misses else "ok"
        if cand.status != "ok":
            detail = f"candidate run status is {cand.status!r}"
            if cand.error:
                detail += ": " + cand.error.strip().splitlines()[-1]
            report.findings.append(Finding(experiment_id, "failed", "fail", detail))
            verdict = "failed"
        elif (cand.seed, cand.scale) != (base.seed, base.scale):
            report.findings.append(
                Finding(
                    experiment_id,
                    "config",
                    "fail",
                    f"seed/scale mismatch: baseline ({base.seed}, {base.scale:g})"
                    f" vs candidate ({cand.seed}, {cand.scale:g}); metrics are "
                    "not comparable",
                )
            )
            verdict = "config"
        else:
            drifts = _compare_metrics(base.metrics, cand.metrics, metric_rtol)
            if drifts:
                report.findings.append(
                    Finding(
                        experiment_id,
                        "metric",
                        "fail",
                        "; ".join(drifts),
                    )
                )
                verdict = "metric-drift"

        base_wall = base.timing.get("wall_seconds")
        cand_wall = cand.timing.get("wall_seconds")
        ratio = "-"
        if base_wall and cand_wall is not None:
            ratio_value = cand_wall / base_wall
            ratio = f"{ratio_value:.2f}x"
            if ratio_value > wall_factor:
                report.findings.append(
                    Finding(
                        experiment_id,
                        "wall",
                        wall_action,
                        f"wall clock {base_wall:.3f}s -> {cand_wall:.3f}s "
                        f"({ratio_value:.2f}x > allowed {wall_factor:g}x)",
                    )
                )
                if verdict == "ok":
                    verdict = (
                        "slower" if wall_action == "warn" else "wall-regression"
                    )
            elif ratio_value < 1.0 / wall_factor:
                report.findings.append(
                    Finding(
                        experiment_id,
                        "wall",
                        "info",
                        f"wall clock improved {base_wall:.3f}s -> "
                        f"{cand_wall:.3f}s ({ratio_value:.2f}x)",
                    )
                )
                if verdict == "ok":
                    verdict = "faster"
        report.rows.append(
            (experiment_id, _wall(base), _wall(cand), ratio, verdict)
        )
    return report


def _wall(artifact) -> str:
    wall = artifact.timing.get("wall_seconds")
    return f"{wall:.3f}" if wall is not None else "-"


def compare_dirs(
    baseline_dir,
    candidate_dir,
    *,
    wall_factor: float = 1.3,
    metric_rtol: float = 1e-9,
    wall_action: str = "fail",
    floors: dict = None,
) -> ComparisonReport:
    """Load two artifact directories and compare them."""
    return compare_artifacts(
        load_artifact_dir(baseline_dir),
        load_artifact_dir(candidate_dir),
        wall_factor=wall_factor,
        metric_rtol=metric_rtol,
        wall_action=wall_action,
        floors=floors,
    )
