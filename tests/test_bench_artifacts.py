"""Tests for the BENCH_*.json artifact schema and IO."""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.bench import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    BenchArtifact,
    compare_dirs,
    load_artifact,
    load_artifact_dir,
    write_artifact,
)
from repro.bench.artifacts import (
    artifact_path,
    check_metrics,
    check_timing,
    host_info,
)
from repro.exceptions import BenchmarkError


def _artifact(**kwargs):
    defaults = dict(
        experiment_id="e1",
        seed=101,
        scale=1.0,
        params={"n": 10_000},
        metrics={"l1": 0.08, "iters": 12},
        timing={"wall_seconds": 0.01, "peak_rss_kb": 5000},
        host={"python": "3.11"},
        title="toy",
        tags=("smoke",),
    )
    defaults.update(kwargs)
    return BenchArtifact(**defaults)


class TestRoundTrip:
    def test_write_then_load_is_equal(self, tmp_path):
        artifact = _artifact()
        path = write_artifact(artifact, tmp_path)
        assert path == artifact_path(tmp_path, "e1")
        assert path.name == f"{ARTIFACT_PREFIX}e1.json"
        assert load_artifact(path) == artifact

    def test_nan_metric_round_trips(self, tmp_path):
        artifact = _artifact(metrics={"chi2": float("nan")})
        path = write_artifact(artifact, tmp_path)
        loaded = load_artifact(path)
        assert math.isnan(loaded.metrics["chi2"])

    def test_nonfinite_metrics_stay_strict_json(self, tmp_path):
        artifact = _artifact(
            metrics={
                "gamma": float("inf"),
                "neg": float("-inf"),
                "chi2": float("nan"),
            }
        )
        path = write_artifact(artifact, tmp_path)

        def _reject_literal(name):
            raise AssertionError(f"non-strict JSON literal {name!r} in artifact")

        doc = json.loads(path.read_text(), parse_constant=_reject_literal)
        assert doc["metrics"]["gamma"] == "Infinity"
        assert doc["metrics"]["neg"] == "-Infinity"
        assert doc["metrics"]["chi2"] == "NaN"
        loaded = load_artifact(path)
        assert loaded.metrics["gamma"] == math.inf
        assert loaded.metrics["neg"] == -math.inf
        assert math.isnan(loaded.metrics["chi2"])

    def test_sentinel_like_strings_round_trip_as_strings(self, tmp_path):
        artifact = _artifact(
            metrics={
                "mode": "Infinity",
                "note": "NaN",
                "already_escaped": "\\Infinity",
                "plain": "uniform",
            }
        )
        path = write_artifact(artifact, tmp_path)
        loaded = load_artifact(path)
        assert loaded.metrics == artifact.metrics
        assert isinstance(loaded.metrics["mode"], str)

    def test_serialization_is_byte_stable(self, tmp_path):
        a = _artifact(metrics={"b": 1.0, "a": 2.0})
        b = _artifact(metrics={"a": 2.0, "b": 1.0})
        path_a = write_artifact(a, tmp_path / "one")
        path_b = write_artifact(b, tmp_path / "two")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_deterministic_dict_drops_volatile_sections(self):
        doc = _artifact().deterministic_dict()
        assert "timing" not in doc and "host" not in doc
        assert doc["metrics"] == {"l1": 0.08, "iters": 12}


class TestSchemaValidation:
    def test_schema_version_bump_rejected(self, tmp_path):
        path = write_artifact(_artifact(), tmp_path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match="schema_version"):
            load_artifact(path)

    def test_missing_field_rejected(self, tmp_path):
        path = write_artifact(_artifact(), tmp_path)
        doc = json.loads(path.read_text())
        del doc["metrics"]
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match="missing fields"):
            load_artifact(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_artifact(_artifact(), tmp_path)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match="unknown fields"):
            load_artifact(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / f"{ARTIFACT_PREFIX}bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BenchmarkError, match="does not exist"):
            load_artifact(tmp_path / "BENCH_ghost.json")

    @pytest.mark.parametrize(
        "section, value",
        [
            ("timing", []),
            ("timing", {"wall_seconds": "slow"}),
            ("timing", {"speedup": True}),
            ("timing", {"speedup": None}),
            ("params", {"n": {"nested": 1}}),
            ("params", ["n"]),
        ],
        ids=[
            "timing-list",
            "timing-str",
            "timing-bool",
            "timing-none",
            "params-nested",
            "params-list",
        ],
    )
    def test_malformed_section_rejected_naming_the_file(
        self, tmp_path, section, value
    ):
        path = write_artifact(_artifact(), tmp_path)
        doc = json.loads(path.read_text())
        doc[section] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match=re.escape(str(path))):
            load_artifact(path)

    @pytest.mark.parametrize(
        "timing", [[], {"wall_seconds": "slow"}], ids=["list", "str-wall"]
    )
    def test_compare_rejects_malformed_timing_cleanly(self, tmp_path, timing):
        write_artifact(_artifact(), tmp_path / "base")
        path = write_artifact(_artifact(), tmp_path / "cand")
        doc = json.loads(path.read_text())
        doc["timing"] = timing
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match="timing"):
            compare_dirs(tmp_path / "base", tmp_path / "cand")


class TestCheckMetrics:
    def test_accepts_scalars(self):
        metrics = {"a": 1, "b": 2.5, "c": "x", "d": True, "e": None}
        assert check_metrics(metrics) == metrics

    def test_rejects_nested(self):
        with pytest.raises(BenchmarkError, match="JSON scalar"):
            check_metrics({"a": {"nested": 1}})

    def test_rejects_non_string_keys(self):
        with pytest.raises(BenchmarkError, match="keys must be strings"):
            check_metrics({1: 2.0})

    def test_rejects_non_dict(self):
        with pytest.raises(BenchmarkError, match="must be a dict"):
            check_metrics([1, 2])


class TestCheckTiming:
    def test_accepts_numbers(self):
        timing = {"wall_seconds": 0.5, "peak_rss_kb": 100, "ratio": math.nan}
        assert check_timing(timing) == timing

    @pytest.mark.parametrize("value", ["slow", True, None, [1.0]])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(BenchmarkError, match="timing"):
            check_timing({"speedup": value})


class TestDirectoryLoading:
    def test_loads_all_artifacts(self, tmp_path):
        write_artifact(_artifact(experiment_id="e1"), tmp_path)
        write_artifact(_artifact(experiment_id="e2"), tmp_path)
        loaded = load_artifact_dir(tmp_path)
        assert set(loaded) == {"e1", "e2"}

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(BenchmarkError, match="no BENCH_"):
            load_artifact_dir(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(BenchmarkError, match="does not exist"):
            load_artifact_dir(tmp_path / "ghost")

    def test_conflicting_ids_rejected(self, tmp_path):
        write_artifact(_artifact(experiment_id="e1"), tmp_path)
        # second file, same embedded id
        doc = _artifact(experiment_id="e1").to_dict()
        (tmp_path / f"{ARTIFACT_PREFIX}e1_copy.json").write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match="two artifacts"):
            load_artifact_dir(tmp_path)


def test_host_info_fields():
    info = host_info()
    assert {"platform", "machine", "python", "numpy", "cpu_count"} <= set(info)
