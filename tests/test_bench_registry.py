"""Tests for the benchmark experiment registry and discovery."""

from __future__ import annotations

import sys

import pytest

from repro.bench import REGISTRY, discover, experiment
from repro.bench.registry import (
    Experiment,
    ExperimentRegistry,
    _natural_key,
    default_benchmarks_dir,
)
from repro.exceptions import BenchmarkError


def _make_fn(tag: str):
    """A function with its own synthetic definition site.

    Registration treats same-id functions defined at the same site as a
    re-import of one experiment; tests that want genuine collisions need
    genuinely distinct sites.
    """
    namespace = {}
    exec(compile("def run(ctx):\n    return {}\n", f"<{tag}>", "exec"), namespace)
    return namespace["run"]


def _spec(experiment_id, **kwargs):
    defaults = dict(title="t", tags=(), seed=1, module="m")
    defaults.update(kwargs)
    defaults.setdefault("fn", _make_fn(f"{experiment_id}@{defaults['module']}"))
    return Experiment(id=experiment_id, **defaults)


class TestRegistry:
    def test_register_and_get(self):
        registry = ExperimentRegistry()
        spec = _spec("e1")
        registry.register(spec)
        assert registry.get("e1") is spec
        assert "e1" in registry
        assert len(registry) == 1

    def test_duplicate_id_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1", module="first"))
        with pytest.raises(BenchmarkError, match="duplicate experiment id"):
            registry.register(_spec("e1", module="second"))

    def test_duplicate_error_names_prior_module(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1", module="mod_a"))
        with pytest.raises(BenchmarkError, match="mod_a"):
            registry.register(_spec("e1", module="mod_b"))

    def test_invalid_id_rejected(self):
        registry = ExperimentRegistry()
        for bad in ("", "has space", "semi;colon", "_leading"):
            with pytest.raises(BenchmarkError, match="invalid experiment id"):
                registry.register(_spec(bad))

    def test_unknown_id_lists_known(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1"))
        with pytest.raises(BenchmarkError, match="registered: e1"):
            registry.get("nope")

    def test_ids_naturally_sorted(self):
        registry = ExperimentRegistry()
        for experiment_id in ("e10", "e2", "e1", "e19_local"):
            registry.register(_spec(experiment_id))
        assert registry.ids() == ("e1", "e2", "e10", "e19_local")

    def test_select_by_tags_any_match(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1", tags=("smoke", "fast")))
        registry.register(_spec("e2", tags=("slow",)))
        registry.register(_spec("e3", tags=("smoke",)))
        selected = registry.select(tags=("smoke",))
        assert [s.id for s in selected] == ["e1", "e3"]
        both = registry.select(tags=("smoke", "slow"))
        assert [s.id for s in both] == ["e1", "e2", "e3"]

    def test_select_by_ids_and_tags(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1", tags=("smoke",)))
        registry.register(_spec("e2", tags=("smoke",)))
        selected = registry.select(ids=("e2",), tags=("smoke",))
        assert [s.id for s in selected] == ["e2"]

    def test_unknown_tag_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1", tags=("smoke",)))
        with pytest.raises(BenchmarkError, match="unknown tags"):
            registry.select(tags=("smoke", "typo"))

    def test_clear(self):
        registry = ExperimentRegistry()
        registry.register(_spec("e1"))
        registry.clear()
        assert len(registry) == 0

    def test_same_definition_site_reregisters_idempotently(self):
        # the same file imported under two module names (pytest + discover)
        registry = ExperimentRegistry()
        fn = _make_fn("shared-site")
        registry.register(_spec("e1", fn=fn, module="bench_e1"))
        replacement = _spec("e1", fn=fn, module="repro_bench_bench_e1")
        registry.register(replacement)
        assert registry.get("e1") is replacement
        assert len(registry) == 1


class TestDecorator:
    def test_registers_and_returns_function(self):
        registry = ExperimentRegistry()

        @experiment("toy", tags=("a",), seed=5, registry=registry)
        def run_toy(ctx):
            return {"x": 1}

        assert registry.get("toy").fn is run_toy
        assert registry.get("toy").seed == 5
        assert run_toy.experiment.id == "toy"
        assert run_toy(None) == {"x": 1}


class TestFloors:
    def test_decorator_stores_floors(self):
        registry = ExperimentRegistry()

        @experiment("toy", floors={"speedup": 1.5}, registry=registry)
        def run_toy(ctx):
            return {}

        assert registry.get("toy").floors == {"speedup": 1.5}
        assert _spec("e1").floors == {}

    @pytest.mark.parametrize(
        "floors",
        [
            {"": 1.0},
            {1: 1.0},
            {"speedup": True},
            {"speedup": float("nan")},
            {"speedup": float("inf")},
            {"speedup": 0},
            {"speedup": -0.5},
            {"speedup": "1.0"},
            ["speedup"],
        ],
    )
    def test_invalid_floors_rejected(self, floors):
        registry = ExperimentRegistry()
        with pytest.raises(BenchmarkError, match="floors"):
            registry.register(_spec("e1", floors=floors))
        assert "e1" not in registry

    def test_real_floors_sit_at_the_ci_bounds(self):
        discover()
        declared = {
            spec.id: spec.floors for spec in REGISTRY.select() if spec.floors
        }
        assert declared == {
            "e19_byclass": {"speedup": 1.0},
            "e19_local": {"speedup": 0.75},
            "e20": {"speedup_4_shards": 1.0},
            "e21": {"speedup_4_shards": 1.5},
            "e23": {"speedup_4_workers": 1.0},
            "e24": {
                "1_shards_mine_headroom": 0.5,
                "4_shards_mine_headroom": 0.5,
            },
            "e25": {"chaos_vs_clean": 0.15},
            "e26": {"quantized_vs_float_rate_4_shards": 0.3},
        }
        # every floored experiment is in the smoke set CI gates
        assert all("smoke" in REGISTRY.get(i).tags for i in declared)


class TestNaturalKey:
    def test_orders_numbers_numerically(self):
        ids = ["e10", "e9", "e1", "e19_byclass", "e19_local"]
        assert sorted(ids, key=_natural_key) == [
            "e1",
            "e9",
            "e10",
            "e19_byclass",
            "e19_local",
        ]


class TestDiscovery:
    def test_discovers_real_benchmarks(self):
        ids = discover(default_benchmarks_dir())
        assert "e1" in ids
        assert "e19_byclass" in ids and "e19_local" in ids
        # natural order: e2 precedes e10
        assert ids.index("e2") < ids.index("e10")

    def test_discovery_is_deterministic_and_idempotent(self):
        first = discover(default_benchmarks_dir())
        second = discover(default_benchmarks_dir())
        assert first == second
        # re-discovery never re-registers (no duplicate-id explosion)
        assert REGISTRY.select(tags=("smoke",))

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(BenchmarkError, match="does not exist"):
            discover(tmp_path / "nope")

    def test_duplicate_id_across_modules_rejected(self, tmp_path):
        (tmp_path / "bench_a.py").write_text(
            "from repro.bench import experiment\n"
            "@experiment('zz_dup_discovery')\n"
            "def run(ctx):\n    return {}\n"
        )
        (tmp_path / "bench_b.py").write_text(
            "from repro.bench import experiment\n"
            "@experiment('zz_dup_discovery')\n"
            "def run(ctx):\n    return {}\n"
        )
        with pytest.raises(BenchmarkError, match="duplicate experiment id"):
            discover(tmp_path)

    def test_discovery_skips_files_pytest_already_imported(self, tmp_path):
        import uuid
        from importlib import util as importlib_util

        exp_id = f"zz_pyimp_{uuid.uuid4().hex[:8]}"
        path = tmp_path / "bench_pyimported.py"
        path.write_text(
            "from repro.bench import experiment\n"
            f"@experiment({exp_id!r})\n"
            "def run(ctx):\n    return {'ok': 1}\n"
        )
        # simulate pytest importing the file under its bare stem first
        module_name = f"bench_pyimported_{exp_id}"
        spec = importlib_util.spec_from_file_location(module_name, path)
        module = importlib_util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
        try:
            ids = discover(tmp_path)  # must not raise a duplicate-id error
            assert exp_id in ids
            assert REGISTRY.get(exp_id).fn(None) == {"ok": 1}
        finally:
            del sys.modules[module_name]

    def test_rediscovery_repairs_a_cleared_registry(self, tmp_path):
        import uuid

        from repro.bench.registry import ExperimentRegistry, _register_missing

        exp_id = f"zz_clear_{uuid.uuid4().hex[:8]}"
        (tmp_path / "bench_clearable.py").write_text(
            "from repro.bench import experiment\n"
            f"@experiment({exp_id!r}, seed=4)\n"
            "def run(ctx):\n    return {'v': 1}\n"
        )
        assert exp_id in discover(tmp_path)
        spec = REGISTRY.get(exp_id)
        # simulate REGISTRY.clear() for this id without nuking the
        # process-global registry other tests rely on
        REGISTRY._specs.pop(exp_id)
        assert exp_id not in REGISTRY
        ids = discover(tmp_path)  # file already imported: no re-execution
        assert exp_id in ids
        assert REGISTRY.get(exp_id).fn is spec.fn

        # the repair path also works on an explicit empty registry
        fresh = ExperimentRegistry()
        module = next(
            m
            for m in list(sys.modules.values())
            if getattr(m, "__file__", None)
            and str(m.__file__).endswith("bench_clearable.py")
        )
        _register_missing(module, fresh)
        assert exp_id in fresh

    def test_discovery_leaves_sys_path_alone(self, tmp_path):
        (tmp_path / "bench_plain.py").write_text(
            "from repro.bench import experiment\n"
            f"@experiment('zz_syspath_{tmp_path.name}')\n"
            "def run(ctx):\n    return {}\n"
        )
        before = list(sys.path)
        discover(tmp_path)
        assert sys.path == before
