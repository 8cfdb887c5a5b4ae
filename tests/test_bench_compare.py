"""Tests for the benchmark comparator and regression gating."""

from __future__ import annotations

import pytest

from repro.bench import (
    BenchArtifact,
    compare_artifacts,
    compare_dirs,
    parse_wall_factor,
    write_artifact,
)
from repro.exceptions import BenchmarkError


def _artifact(experiment_id="e1", *, wall=1.0, metrics=None, **kwargs):
    defaults = dict(
        experiment_id=experiment_id,
        seed=7,
        scale=1.0,
        params={"n": 100},
        metrics=metrics if metrics is not None else {"accuracy": 0.9},
        timing={"wall_seconds": wall, "peak_rss_kb": 1000},
        host={},
    )
    defaults.update(kwargs)
    return BenchArtifact(**defaults)


class TestParseWallFactor:
    def test_accepts_x_suffix(self):
        assert parse_wall_factor("1.3x") == pytest.approx(1.3)
        assert parse_wall_factor("2x") == 2.0
        assert parse_wall_factor("1.5") == 1.5
        assert parse_wall_factor(1.25) == 1.25

    def test_rejects_garbage(self):
        for bad in ("fast", "x2", "", "1.3y"):
            with pytest.raises(BenchmarkError, match="invalid regression factor"):
                parse_wall_factor(bad)

    def test_rejects_below_one(self):
        with pytest.raises(BenchmarkError, match=">= 1"):
            parse_wall_factor("0.5x")


class TestCompare:
    def test_identical_passes(self):
        base = {"e1": _artifact()}
        report = compare_artifacts(base, {"e1": _artifact()})
        assert report.passed
        assert report.rows[0][-1] == "ok"

    def test_metric_drift_fails(self):
        base = {"e1": _artifact(metrics={"accuracy": 0.9})}
        cand = {"e1": _artifact(metrics={"accuracy": 0.85})}
        report = compare_artifacts(base, cand)
        assert not report.passed
        assert report.failures[0].kind == "metric"
        assert "accuracy" in report.failures[0].detail

    def test_metric_within_tolerance_passes(self):
        base = {"e1": _artifact(metrics={"accuracy": 0.9})}
        cand = {"e1": _artifact(metrics={"accuracy": 0.9 + 1e-12})}
        assert compare_artifacts(base, cand).passed

    def test_relaxed_rtol_tolerates_drift(self):
        base = {"e1": _artifact(metrics={"accuracy": 0.900})}
        cand = {"e1": _artifact(metrics={"accuracy": 0.903})}
        assert not compare_artifacts(base, cand).passed
        assert compare_artifacts(base, cand, metric_rtol=0.01).passed

    def test_nan_equals_nan(self):
        base = {"e1": _artifact(metrics={"chi2": float("nan")})}
        cand = {"e1": _artifact(metrics={"chi2": float("nan")})}
        assert compare_artifacts(base, cand).passed

    def test_nan_vs_finite_is_drift(self):
        for base_value, cand_value in (
            (float("nan"), 5.0),
            (5.0, float("nan")),
            (float("nan"), float("inf")),
        ):
            base = {"e1": _artifact(metrics={"chi2": base_value})}
            cand = {"e1": _artifact(metrics={"chi2": cand_value})}
            report = compare_artifacts(base, cand)
            assert not report.passed, (base_value, cand_value)
            assert report.failures[0].kind == "metric"

    def test_disappeared_metric_fails(self):
        base = {"e1": _artifact(metrics={"a": 1.0, "b": 2.0})}
        cand = {"e1": _artifact(metrics={"a": 1.0})}
        report = compare_artifacts(base, cand)
        assert not report.passed
        assert "disappeared" in report.failures[0].detail

    def test_wall_regression_fails(self):
        base = {"e1": _artifact(wall=1.0)}
        cand = {"e1": _artifact(wall=2.0)}
        report = compare_artifacts(base, cand, wall_factor="1.3x")
        assert not report.passed
        assert report.failures[0].kind == "wall"
        assert report.rows[0][-1] == "wall-regression"

    def test_wall_regression_warns_when_demoted(self):
        base = {"e1": _artifact(wall=1.0)}
        cand = {"e1": _artifact(wall=2.0)}
        report = compare_artifacts(
            base, cand, wall_factor="1.3x", wall_action="warn"
        )
        assert report.passed
        assert report.warnings[0].kind == "wall"
        assert report.rows[0][-1] == "slower"

    def test_wall_within_slack_passes(self):
        base = {"e1": _artifact(wall=1.0)}
        cand = {"e1": _artifact(wall=1.2)}
        assert compare_artifacts(base, cand, wall_factor="1.3x").passed

    def test_wall_improvement_noted(self):
        base = {"e1": _artifact(wall=2.0)}
        cand = {"e1": _artifact(wall=0.5)}
        report = compare_artifacts(base, cand)
        assert report.passed
        assert any(f.severity == "info" and f.kind == "wall" for f in report.findings)
        assert report.rows[0][-1] == "faster"

    def test_missing_experiment_fails(self):
        base = {"e1": _artifact("e1"), "e2": _artifact("e2")}
        cand = {"e1": _artifact("e1")}
        report = compare_artifacts(base, cand)
        assert not report.passed
        assert report.failures[0].kind == "missing"

    def test_new_experiment_is_informational(self):
        base = {"e1": _artifact("e1")}
        cand = {"e1": _artifact("e1"), "e2": _artifact("e2")}
        report = compare_artifacts(base, cand)
        assert report.passed
        assert any(f.kind == "added" for f in report.findings)

    def test_failed_candidate_fails(self):
        base = {"e1": _artifact()}
        cand = {
            "e1": _artifact(status="failed", error="AssertionError: shape broke")
        }
        report = compare_artifacts(base, cand)
        assert not report.passed
        assert report.failures[0].kind == "failed"
        assert "shape broke" in report.failures[0].detail

    def test_seed_mismatch_fails(self):
        base = {"e1": _artifact(seed=7)}
        cand = {"e1": _artifact(seed=8)}
        report = compare_artifacts(base, cand)
        assert not report.passed
        assert report.failures[0].kind == "config"

    def test_invalid_wall_action_rejected(self):
        with pytest.raises(BenchmarkError, match="wall_action"):
            compare_artifacts({}, {}, wall_action="shrug")

    def test_format_mentions_result(self):
        base = {"e1": _artifact()}
        text = compare_artifacts(base, {"e1": _artifact()}).format()
        assert "result: PASS" in text
        text = compare_artifacts(base, {"e1": _artifact(wall=9.0)}).format()
        assert "result: FAIL" in text


class TestFloors:
    FLOORS = {"e1": {"speedup": 2.0}}

    @staticmethod
    def _timed(speedup=None, **kwargs):
        timing = {"wall_seconds": 1.0, "peak_rss_kb": 1000}
        if speedup is not None:
            timing["speedup"] = speedup
        return _artifact(timing=timing, **kwargs)

    def test_floor_miss_fails_even_when_wall_only_warns(self):
        report = compare_artifacts(
            {"e1": self._timed(3.0)},
            {"e1": self._timed(1.5)},
            wall_action="warn",
            floors=self.FLOORS,
        )
        assert not report.passed
        assert [f.kind for f in report.failures] == ["floor"]
        assert "below its floor 2" in report.failures[0].detail
        assert report.rows[0][-1] == "below-floor"

    def test_met_floor_passes(self):
        report = compare_artifacts(
            {"e1": self._timed(3.0)},
            {"e1": self._timed(2.0)},
            floors=self.FLOORS,
        )
        assert report.passed
        assert report.rows[0][-1] == "ok"

    def test_missing_floor_key_fails(self):
        report = compare_artifacts(
            {"e1": self._timed(3.0)},
            {"e1": self._timed()},
            wall_action="warn",
            floors=self.FLOORS,
        )
        assert not report.passed
        assert "'speedup' was not recorded" in report.failures[0].detail

    def test_nan_misses_the_floor(self):
        report = compare_artifacts(
            {"e1": self._timed(3.0)},
            {"e1": self._timed(float("nan"))},
            floors=self.FLOORS,
        )
        assert [f.kind for f in report.failures] == ["floor"]

    def test_experiment_without_baseline_is_floor_checked(self):
        cand = {"e1": self._timed(1.0), "e2": self._timed(1.0, experiment_id="e2")}
        report = compare_artifacts(
            {"e2": self._timed(1.0, experiment_id="e2")},
            cand,
            floors=self.FLOORS,
        )
        assert [(f.experiment_id, f.kind) for f in report.failures] == [
            ("e1", "floor")
        ]
        assert report.rows[0] == ("e1", "-", "1.000", "-", "below-floor")


class TestCompareDirs:
    def test_round_trip_through_disk(self, tmp_path):
        base_dir, cand_dir = tmp_path / "base", tmp_path / "cand"
        write_artifact(_artifact(wall=1.0), base_dir)
        write_artifact(_artifact(wall=3.0), cand_dir)
        report = compare_dirs(base_dir, cand_dir, wall_factor="1.5x")
        assert not report.passed
        assert compare_dirs(base_dir, base_dir).passed
