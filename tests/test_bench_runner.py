"""Tests for the benchmark runner: measurement, seeding, parallelism."""

from __future__ import annotations

import json
import uuid

import pytest

from repro.bench import (
    REGISTRY,
    SCHEMA_VERSION,
    ExperimentContext,
    derive_seed,
    load_artifact_dir,
    run_experiments,
)
from repro.exceptions import BenchmarkError
from repro.experiments.config import bench_scale, scale_override


def _toy_module(exp_id: str, *, fail: bool = False, tags=("toytag",)) -> str:
    """Source of a self-contained toy benchmark module."""
    body = "raise AssertionError('toy failure')" if fail else (
        "ctx.record(n=ctx.scaled(10))\n"
        "    ctx.report('value table', name='%s')\n"
        "    return {'double_seed': ctx.seed * 2, 'constant': 1.5}" % exp_id
    )
    return (
        "from repro.bench import experiment\n"
        f"@experiment({exp_id!r}, tags={tuple(tags)!r}, seed=3)\n"
        "def run(ctx):\n"
        f"    {body}\n"
    )


@pytest.fixture
def toy_bench(tmp_path):
    """A throwaway benchmarks dir holding two unique toy experiments."""
    suffix = uuid.uuid4().hex[:8]
    ids = (f"zz_a_{suffix}", f"zz_b_{suffix}")
    for i, exp_id in enumerate(ids):
        (tmp_path / f"bench_toy{i}.py").write_text(_toy_module(exp_id))
    return tmp_path, ids


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, "e1") == derive_seed(7, "e1")
        assert derive_seed(7, "e1") != derive_seed(7, "e2")
        assert derive_seed(7, "e1") != derive_seed(8, "e1")
        assert 0 <= derive_seed(0, "x") < 2**31


class TestContext:
    def test_records_params_and_tables(self, tmp_path):
        ctx = ExperimentContext("e1", 7, results_dir=tmp_path)
        ctx.record(n=10, noise="uniform")
        ctx.record(privacy=0.5)
        ctx.report("a table", name="custom")
        ctx.report("default-name table")
        assert ctx.params == {"n": 10, "noise": "uniform", "privacy": 0.5}
        assert (tmp_path / "custom.txt").read_text() == "a table\n"
        assert (tmp_path / "e1.txt").read_text() == "default-name table\n"

    def test_no_results_dir_keeps_tables_in_memory(self):
        ctx = ExperimentContext("e1", 7)
        ctx.report("text")
        assert ctx.tables == {"e1": "text"}

    def test_record_timing_validates(self):
        ctx = ExperimentContext("e1", 7)
        ctx.record_timing(speedup=2.0)
        assert ctx.timings == {"speedup": 2.0}
        with pytest.raises(BenchmarkError):
            ctx.record_timing(bad={"nested": 1})

    def test_record_timing_rejects_non_numbers(self):
        ctx = ExperimentContext("e1", 7)
        for bad in ("fast", True, None):
            with pytest.raises(BenchmarkError, match="must be a number"):
                ctx.record_timing(speedup=bad)
        assert ctx.timings == {}

    def test_record_validates_params(self):
        import numpy as np

        ctx = ExperimentContext("e1", 7)
        with pytest.raises(BenchmarkError, match="params"):
            ctx.record(n=np.int64(6000))
        assert ctx.params == {}

    def test_scaled_honours_override(self):
        ctx = ExperimentContext("e1", 7)
        with scale_override(3):
            assert ctx.scaled(10) == 30
        assert ctx.scaled(10) == 10


class TestScaleOverride:
    def test_nested_restore(self):
        with scale_override(2):
            assert bench_scale() == 2.0
            with scale_override(5):
                assert bench_scale() == 5.0
            assert bench_scale() == 2.0

    def test_none_is_noop(self, monkeypatch):
        monkeypatch.setenv("PPDM_BENCH_SCALE", "4")
        with scale_override(None):
            assert bench_scale() == 4.0

    def test_invalid_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            with scale_override(-1):
                pass


class TestRunner:
    def test_serial_run_writes_valid_artifacts(self, toy_bench, tmp_path):
        bench_dir, ids = toy_bench
        out = tmp_path / "artifacts"
        artifacts = run_experiments(
            ids=ids, artifacts_dir=out, benchmarks_dir=bench_dir
        )
        assert [a.experiment_id for a in artifacts] == sorted(ids)
        loaded = load_artifact_dir(out)
        for exp_id in ids:
            artifact = loaded[exp_id]
            assert artifact.schema_version == SCHEMA_VERSION
            assert artifact.status == "ok"
            assert artifact.seed == 3  # canonical seed by default
            assert artifact.metrics == {"double_seed": 6, "constant": 1.5}
            assert artifact.params == {"n": 10}
            assert artifact.timing["wall_seconds"] >= 0
            assert artifact.timing["peak_rss_kb"] > 0

    def test_base_seed_derives_per_experiment(self, toy_bench, tmp_path):
        bench_dir, ids = toy_bench
        artifacts = run_experiments(
            ids=ids,
            artifacts_dir=tmp_path / "a",
            benchmarks_dir=bench_dir,
            base_seed=42,
        )
        by_id = {a.experiment_id: a for a in artifacts}
        for exp_id in ids:
            expected = derive_seed(42, exp_id)
            assert by_id[exp_id].seed == expected
            assert by_id[exp_id].metrics["double_seed"] == expected * 2

    def test_scale_reaches_experiments_and_artifact(self, toy_bench, tmp_path):
        bench_dir, ids = toy_bench
        artifacts = run_experiments(
            ids=ids[:1],
            artifacts_dir=tmp_path / "a",
            benchmarks_dir=bench_dir,
            scale=2.5,
        )
        assert artifacts[0].scale == 2.5
        assert artifacts[0].params == {"n": 25}

    def test_parallel_matches_serial(self, toy_bench, tmp_path):
        bench_dir, ids = toy_bench
        serial = run_experiments(
            ids=ids, artifacts_dir=tmp_path / "s", benchmarks_dir=bench_dir
        )
        parallel = run_experiments(
            ids=ids,
            jobs=2,
            artifacts_dir=tmp_path / "p",
            benchmarks_dir=bench_dir,
        )
        assert [a.deterministic_dict() for a in serial] == [
            a.deterministic_dict() for a in parallel
        ]

    def test_failing_experiment_yields_failed_artifact(self, tmp_path):
        exp_id = f"zz_fail_{uuid.uuid4().hex[:8]}"
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "bench_fail.py").write_text(_toy_module(exp_id, fail=True))
        artifacts = run_experiments(
            ids=[exp_id],
            artifacts_dir=tmp_path / "a",
            benchmarks_dir=bench_dir,
        )
        assert artifacts[0].status == "failed"
        assert "toy failure" in artifacts[0].error
        assert artifacts[0].metrics == {}
        # the artifact still lands on disk for post-mortem
        doc = json.loads((tmp_path / "a" / f"BENCH_{exp_id}.json").read_text())
        assert doc["status"] == "failed"

    def test_invalid_jobs_rejected(self, toy_bench, tmp_path):
        bench_dir, _ids = toy_bench
        with pytest.raises(BenchmarkError, match="jobs must be >= 1"):
            run_experiments(
                jobs=0, artifacts_dir=tmp_path, benchmarks_dir=bench_dir
            )

    def test_empty_selection_rejected(self, toy_bench, tmp_path):
        bench_dir, _ids = toy_bench
        with pytest.raises(BenchmarkError, match="matched no experiments"):
            run_experiments(
                ids=[], artifacts_dir=tmp_path, benchmarks_dir=bench_dir
            )

    def test_tables_written_to_results_dir(self, toy_bench, tmp_path):
        bench_dir, ids = toy_bench
        results = tmp_path / "results"
        run_experiments(
            ids=ids[:1],
            artifacts_dir=tmp_path / "a",
            benchmarks_dir=bench_dir,
            results_dir=results,
        )
        assert (results / f"{ids[0]}.txt").read_text() == "value table\n"


class TestSmokeParity:
    """Acceptance: the real smoke suite at ``--jobs 1`` vs ``--jobs 2``."""

    def test_smoke_experiments_bit_identical_across_jobs(self, tmp_path):
        kwargs = dict(tags=("smoke",), base_seed=None)
        serial = run_experiments(
            jobs=1, artifacts_dir=tmp_path / "j1", **kwargs
        )
        parallel = run_experiments(
            jobs=2, artifacts_dir=tmp_path / "j2", **kwargs
        )
        assert len(serial) >= 10  # the smoke set stays meaningfully broad
        assert all(a.status == "ok" for a in serial)
        assert [a.deterministic_dict() for a in serial] == [
            a.deterministic_dict() for a in parallel
        ]
        # and every artifact survives a schema-validating reload
        loaded = load_artifact_dir(tmp_path / "j2")
        assert set(loaded) == {a.experiment_id for a in serial}
        # bodies never assert on timings; `bench compare` checks the
        # declared floors, so every declared key must be recorded
        for artifact in serial + parallel:
            floors = REGISTRY.get(artifact.experiment_id).floors
            assert set(floors) <= set(artifact.timing), artifact.experiment_id
