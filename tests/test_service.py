"""Tests for the sharded aggregation service (repro.service)."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    GaussianRandomizer,
    KernelCache,
    NullRandomizer,
    Partition,
    StreamingReconstructor,
    UniformRandomizer,
)
from repro.datasets import shapes
from repro.exceptions import (
    ConvergenceWarning,
    SerializationError,
    ValidationError,
)
from repro.service import (
    AggregationService,
    AttributeSpec,
    Domain,
    ShardSet,
    SupportShardSet,
    encode_columns,
    iter_labeled_frames,
    service_from_spec,
)
from repro.service.resilience import previous_snapshot_path, recover_service

#: ``write_snapshot.py`` there says which tree wrote the files and how
SNAPSHOTS = Path(__file__).resolve().parent / "fixtures" / "snapshots"
PARENT_SNAPSHOT = SNAPSHOTS / "classes2_blocks.json"


def _parent_payload() -> dict:
    """The class-aware snapshot in the format with one row per class block."""
    payload = json.loads(PARENT_SNAPSHOT.read_text())
    del payload["integrity"]
    return payload


def _current_payload() -> dict:
    """The same state, written in the current format."""
    return AggregationService.load(PARENT_SNAPSHOT).snapshot()


@pytest.fixture
def noise():
    return UniformRandomizer(half_width=0.2)


@pytest.fixture
def part():
    return Partition.uniform(0.0, 1.0, 12)


@pytest.fixture
def spec(part, noise):
    return AttributeSpec("x", part, noise)


def _shards(part, noise, n_shards=1, *, classes=0, name="x"):
    """A shard set over one attribute ``name``: ``part`` under ``noise``."""
    domain = Domain([AttributeSpec(name, part, noise)], classes=classes)
    return ShardSet(domain, n_shards)


def _disclose(noise, n, seed):
    density = shapes.plateau()
    return noise.randomize(density.sample(n, seed=seed), seed=seed + 1)


class TestAttributeSpec:
    def test_rejects_empty_name(self, part, noise):
        with pytest.raises(ValidationError):
            AttributeSpec("", part, noise)

    def test_rejects_non_partition(self, noise):
        with pytest.raises(ValidationError):
            AttributeSpec("x", [0.0, 1.0], noise)

    def test_rejects_non_additive_randomizer(self, part):
        with pytest.raises(ValidationError):
            AttributeSpec("x", part, NullRandomizer())


class TestDomain:
    """The one schema object: grids, the batch check, and prepare."""

    @pytest.mark.parametrize("coverage", [1.0 - 1e-9, 0.999, 0.9])
    @pytest.mark.parametrize(
        "noise", [UniformRandomizer(half_width=0.2), GaussianRandomizer(0.15)],
        ids=["uniform", "gaussian"],
    )
    def test_grid_is_the_kernels_grid(self, part, noise, coverage):
        """The domain bins on exactly the grid its kernel was built for."""
        service = AggregationService(
            [AttributeSpec("x", part, noise)], coverage=coverage
        )
        y_partition, _ = service.engine.kernel_for(part, noise)
        grid = service.domain.grid("x")
        assert grid.edges.tobytes() == y_partition.edges.tobytes()

    def test_check_validates_without_locating(self, spec):
        domain = Domain([spec], classes=2)
        columns, labels = domain.check({"x": [0.1, 0.9]}, classes=[1, 0])
        assert columns["x"].dtype == np.float64
        assert columns["x"].tolist() == [0.1, 0.9]
        assert labels.tolist() == [1, 0]
        columns, labels = domain.check({"x": []})
        assert columns["x"].size == 0 and labels is None
        with pytest.raises(ValidationError, match="one class label"):
            domain.check({"x": [0.1, 0.9]}, classes=[1])
        with pytest.raises(ValidationError, match="unknown attribute"):
            domain.check({"y": [0.1]})

    def test_prepare_keeps_the_checked_batch(self, spec):
        domain = Domain([spec], classes=2)
        prepared = domain.prepare({"x": [0.1, 0.9]}, classes=[1, 0])
        assert prepared.columns["x"].tolist() == [0.1, 0.9]
        assert prepared.labels.tolist() == [1, 0]
        grid = domain.grid("x")
        assert prepared.flat.tolist() == grid.locate([0.1, 0.9]).tolist()


class TestHistogramShard:
    """One shard's state, read through a one-shard set."""

    def test_ingest_counts(self, part, noise):
        shards = _shards(part, noise)
        added = shards.ingest({"x": [0.1, 0.5, 0.9]})
        assert added == 3
        assert shards.n_seen("x") == 3
        counts, seen = shards.read_shard(0)
        assert counts.sum() == 3
        assert seen.tolist() == [[3]]

    def test_empty_batches_are_fine(self, part, noise):
        shards = _shards(part, noise)
        assert shards.ingest({"x": []}) == 0
        assert shards.n_seen("x") == 0

    def test_unknown_attribute_rejected(self, part, noise):
        shards = _shards(part, noise)
        with pytest.raises(ValidationError):
            shards.ingest({"nope": [0.5]})
        with pytest.raises(ValidationError):
            shards.n_seen("nope")

    def test_needs_at_least_one_attribute(self):
        with pytest.raises(ValidationError):
            Domain([])

    def test_merge_from_rejects_different_schema(self, part, noise):
        """A shard's state folds only into a set over the same attributes."""
        a = _shards(part, noise)
        b = _shards(part, noise, name="y")
        a.ingest({"x": [0.3]})
        b.ingest({"y": [0.5]})
        before = a.read_shard(0)
        counts, _ = b.merged("y")
        with pytest.raises(ValidationError):
            a.replace_slot(0, {"y": counts[None, :]})
        with pytest.raises(ValidationError):
            a.ingest_prepared(b.layout.prepare({"y": [0.5]}))
        after = a.read_shard(0)
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1], before[1])

    def test_merge_from_rejects_different_grid(self, part, noise):
        """A shard's state folds only into a set over the same grid."""
        a = _shards(part, noise)
        b = _shards(Partition.uniform(-1, 2, 7), noise)
        a.ingest({"x": [0.3]})
        b.ingest({"x": [0.5]})
        before = a.read_shard(0)
        counts, _ = b.merged("x")
        with pytest.raises(ValidationError):
            a.replace_slot(0, {"x": counts[None, :]})
        with pytest.raises(ValidationError):
            a.ingest_prepared(b.layout.prepare({"x": [0.5]}))
        after = a.read_shard(0)
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1], before[1])


class TestShardSet:
    def test_round_robin_routing(self, part, noise):
        shards = _shards(part, noise, n_shards=3)
        for _ in range(6):
            shards.ingest({"x": [0.5]})
        assert [shards.read_shard(i)[1].sum() for i in range(3)] == [2, 2, 2]

    def test_explicit_shard_pinning(self, part, noise):
        shards = _shards(part, noise, n_shards=2)
        shards.ingest({"x": [0.5, 0.6]}, shard=1)
        assert shards.read_shard(0)[1].sum() == 0
        assert shards.read_shard(1)[1].sum() == 2

    def test_shard_index_validated(self, part, noise):
        shards = _shards(part, noise, n_shards=2)
        with pytest.raises(ValidationError):
            shards.read_shard(2)
        with pytest.raises(ValidationError):
            shards.ingest({"x": [0.5]}, shard=-1)

    def test_rejects_bad_shard_count(self, part, noise):
        for bad in (0, 1.5, "2", True):
            with pytest.raises(ValidationError):
                _shards(part, noise, n_shards=bad)

    def test_merged_equals_single_histogram(self, part, noise):
        """The acceptance contract at the histogram level: merged shard
        partials are bit-identical to one histogram of the whole stream."""
        y_part = part.expanded(noise.support_half_width())
        w = _disclose(noise, 5_000, seed=3)
        expected = y_part.histogram(w).astype(float)
        for n_shards in (1, 2, 4, 8):
            shards = _shards(part, noise, n_shards=n_shards)
            for chunk in np.array_split(w, 17):
                shards.ingest({"x": chunk})
            counts, seen = shards.merged("x")
            assert np.array_equal(counts, expected)
            assert seen == w.size

    def test_unknown_attribute(self, part, noise):
        shards = _shards(part, noise, n_shards=2)
        with pytest.raises(ValidationError):
            shards.merged("nope")

    def test_clear(self, part, noise):
        shards = _shards(part, noise, n_shards=2)
        shards.ingest({"x": [0.5]})
        shards.clear()
        assert shards.n_seen("x") == 0


class TestPreparedFastPath:
    """The zero-copy ingest path: prepare() + ingest_prepared()."""

    def test_prepare_then_ingest_matches_ingest(self, part, noise):
        w = _disclose(noise, 2_000, seed=40)
        plain = _shards(part, noise)
        fast = _shards(part, noise)
        plain.ingest({"x": w})
        assert fast.ingest_prepared(fast.layout.prepare({"x": w})) == w.size
        a, seen_a = plain.merged("x")
        b, seen_b = fast.merged("x")
        assert np.array_equal(a, b)
        assert seen_a == seen_b == w.size

    def test_fused_multi_attribute_bincount(self, noise):
        """One prepared batch bins every attribute; per-attribute partials
        match bucketing each attribute separately."""
        domain = Domain([
            ("a", Partition.uniform(0, 1, 6), noise),
            ("b", Partition.uniform(-2, 2, 9), noise),
        ])
        shards = ShardSet(domain)
        rng = np.random.default_rng(8)
        batch = {"a": rng.uniform(0, 1, 500), "b": rng.uniform(-2, 2, 700)}
        assert shards.ingest_prepared(domain.prepare(batch)) == 1200
        for name in domain.names:
            counts, seen = shards.merged(name)
            grid = domain.grid(name)
            assert np.array_equal(counts, grid.histogram(batch[name]))
            assert seen == batch[name].size

    def test_prepared_batch_reusable_across_shards(self, part, noise):
        shards = _shards(part, noise, n_shards=2)
        prepared = shards.layout.prepare({"x": [0.1, 0.9]})
        shards.ingest_prepared(prepared, shard=0)
        shards.ingest_prepared(prepared, shard=1)
        assert shards.n_seen("x") == 4

    def test_prepare_validates_like_ingest(self, part, noise):
        shards = _shards(part, noise)
        with pytest.raises(ValidationError):
            shards.layout.prepare({"nope": [0.5]})
        with pytest.raises(ValidationError):
            shards.layout.prepare({"x": [float("nan")]})
        with pytest.raises(ValidationError):
            shards.layout.prepare({"x": [[0.5]]})
        with pytest.raises(ValidationError):
            shards.layout.prepare([("x", [0.5])])

    def test_ingest_prepared_rejects_foreign_layout(self, part, noise):
        shards = _shards(part, noise)
        other_grid = Domain([("x", Partition.uniform(-9, 9, 5), noise)])
        other_schema = Domain([("y", part, noise)])
        for foreign in (
            other_grid.prepare({"x": [0.5]}),
            other_schema.prepare({"y": [0.5]}),
            {"x": [0.5]},
        ):
            with pytest.raises(ValidationError):
                shards.ingest_prepared(foreign)
        assert shards.n_seen("x") == 0

    def test_equal_layouts_are_compatible(self, part, noise):
        """Two services over the same schema can exchange prepared batches."""
        a = _shards(part, noise)
        b = _shards(part, noise)
        assert b.ingest_prepared(a.layout.prepare({"x": [0.5]})) == 1

    def test_decoded_readonly_columns_ingest_fine(self, part, noise):
        """Wire-decoded columns are read-only frombuffer views; the fast
        path must consume them without copying or writing."""
        w = _disclose(noise, 1_000, seed=41)
        [(batch, _, _)] = iter_labeled_frames(encode_columns({"x": w}))
        assert not batch["x"].flags.writeable
        service = AggregationService([AttributeSpec("x", part, noise)])
        assert service.ingest_prepared(service.prepare(batch)) == w.size
        reference = AggregationService([AttributeSpec("x", part, noise)])
        reference.ingest({"x": w})
        assert np.array_equal(
            service.estimate("x").distribution.probs,
            reference.estimate("x").distribution.probs,
        )

    def test_empty_prepared_batch(self, part, noise):
        shards = _shards(part, noise)
        assert shards.ingest_prepared(shards.layout.prepare({})) == 0
        assert shards.ingest_prepared(shards.layout.prepare({"x": []})) == 0


class TestQuantizedColumns:
    """Client-side quantization: int8/int16 bin indices through prepare()."""

    def test_quantize_width_follows_grid_size(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        w = _disclose(noise, 100, seed=50)
        indices = service.quantize({"x": w})
        assert indices["x"].dtype == np.dtype("int8")
        big = Domain([("x", Partition.uniform(0, 1, 300), noise)])
        assert big.quantize({"x": [0.5]})["x"].dtype == np.dtype("int16")

    def test_quantized_prepare_matches_float_prepare(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        reference = AggregationService([AttributeSpec("x", part, noise)])
        w = _disclose(noise, 2_000, seed=51)
        reference.ingest({"x": w})
        indices = service.quantize({"x": w})
        service.ingest_prepared(service.prepare(indices))
        a = service.estimate("x")
        b = reference.estimate("x")
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.n_iterations == b.n_iterations

    def test_wire_roundtripped_indices_stay_bit_identical(self, part, noise):
        """quantize -> encode_quantized -> decode -> prepare: the full
        client->server path lands in the same accumulators."""
        from repro.service import encode_quantized
        from repro.service.wire import iter_labeled_frames

        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=4
        )
        reference = AggregationService([AttributeSpec("x", part, noise)])
        w = _disclose(noise, 3_000, seed=52)
        reference.ingest({"x": w})
        body = encode_quantized(service.quantize({"x": w}))
        for batch, _, shard in iter_labeled_frames(body):
            service.ingest_prepared(service.prepare(batch), shard=shard)
        assert np.array_equal(
            service.estimate("x").distribution.probs,
            reference.estimate("x").distribution.probs,
        )

    def test_out_of_grid_indices_rejected(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        with pytest.raises(ValidationError, match="bin indices"):
            service.prepare({"x": np.array([0, 120], dtype=np.int8)})
        with pytest.raises(ValidationError, match="bin indices"):
            service.prepare({"x": np.array([-1], dtype=np.int8)})

    def test_quantize_clips_like_float_ingest(self, part, noise):
        """locate() clips out-of-domain disclosures to the edge bins; the
        quantized path inherits exactly that behaviour."""
        service = AggregationService([AttributeSpec("x", part, noise)])
        reference = AggregationService([AttributeSpec("x", part, noise)])
        outliers = np.array([-99.0, 0.5, 99.0])
        reference.ingest({"x": outliers})
        service.ingest_prepared(
            service.prepare(service.quantize({"x": outliers}))
        )
        a, seen_a = service.shards.merged("x")
        b, seen_b = reference.shards.merged("x")
        assert np.array_equal(a, b) and seen_a == seen_b

    def test_quantized_2d_rejected(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        with pytest.raises(ValidationError, match="1-dimensional"):
            service.prepare({"x": np.array([[1]], dtype=np.int8)})


class TestStripedAccumulators:
    def test_stripes_merge_to_exact_counts(self, part, noise):
        """Six writer threads into one shard; merged() is still the
        exact histogram of everything ingested."""
        y_part = part.expanded(noise.support_half_width())
        shards = _shards(part, noise)
        w = _disclose(noise, 6_000, seed=42)
        chunks = np.array_split(w, 24)
        barrier = threading.Barrier(6)

        def worker(index):
            barrier.wait()
            for chunk in chunks[index::6]:
                shards.ingest({"x": chunk})

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))
        counts, seen = shards.merged("x")
        assert np.array_equal(counts, y_part.histogram(w))
        assert seen == w.size

    def test_clear_zeroes_every_stripe(self, part, noise):
        shards = _shards(part, noise)
        shards.ingest({"x": [0.5]})

        def other_thread():
            shards.ingest({"x": [0.7, 0.8]})

        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
        assert shards.n_seen("x") == 3
        shards.clear()
        assert shards.n_seen("x") == 0
        counts, _ = shards.merged("x")
        assert counts.sum() == 0


class _ProbeLock:
    """A shard lock that counts its acquisitions and, after each release,
    runs ``probe`` once, unlocked (never from inside a probe)."""

    def __init__(self, probe=None) -> None:
        self._lock = threading.Lock()
        self._probe = probe
        self._probing = False
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
        if self._probe is not None and not self._probing:
            self._probing = True
            try:
                self._probe()
            finally:
                self._probing = False


def _probe_locks(shards, probe=None) -> list:
    """Swap each shard's lock for a :class:`_ProbeLock`; return them."""
    locks = [_ProbeLock(probe) for _ in range(shards.n_shards)]
    for shard, lock in zip(shards._shards, locks):
        shard._lock = lock
    return locks


class TestShardLocks:
    """Each shard operation holds each shard's lock a fixed number of
    times: a work count that is the same on every machine."""

    def test_slot_replace_never_reads_as_empty(self, part, noise):
        """Readers that skip the estimate lock, run between any two
        holds of the slot's lock, see the old slot or the new one."""
        coordinator = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=2, classes=2
        )
        worker = AggregationService([AttributeSpec("x", part, noise)])
        w = _disclose(noise, 101, seed=70)
        worker.ingest({"x": w[:100]})
        coordinator.replace_partial(0, worker.export_partial())
        worker.ingest({"x": w[100:]})
        readings = []

        def probe():
            readings.append((
                coordinator.n_seen("x"),
                coordinator.n_seen_by_class("x")["unlabeled"],
                int(coordinator.export_partial()["x"].sum()),
                coordinator.snapshot()["state"]["x"]["n_seen"],
            ))

        [slot, _] = _probe_locks(coordinator.shards)
        slot._probe = probe
        assert coordinator.replace_partial(0, worker.export_partial()) == 101
        assert readings
        assert set(readings) <= {(100,) * 4, (101,) * 4}
        assert coordinator.n_seen("x") == 101

    def test_one_acquisition_per_shard_per_operation(self, part, noise):
        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=3
        )
        locks = _probe_locks(service.shards)

        def taken(action) -> list:
            before = [lock.acquired for lock in locks]
            action()
            return [lock.acquired - b for lock, b in zip(locks, before)]

        prepared = service.prepare({"x": _disclose(noise, 50, seed=71)})
        assert taken(lambda: service.ingest_prepared(prepared, shard=1)) == [0, 1, 0]
        assert taken(service.shards.merge) == [1, 1, 1]
        assert taken(lambda: service.shards.merged("x")) == [1, 1, 1]
        assert taken(lambda: service.n_seen("x")) == [1, 1, 1]
        assert taken(service.n_seen) == [1, 1, 1]
        assert taken(lambda: service.n_seen_by_class("x")) == [1, 1, 1]
        assert taken(service.export_partial) == [1, 1, 1]
        assert taken(lambda: service.estimate("x", warn=False)) == [1, 1, 1]
        partials = service.export_partial()
        assert taken(lambda: service.replace_partial(2, partials)) == [0, 0, 1]
        assert taken(service.shards.clear) == [1, 1, 1]

    def test_support_reads_take_one_acquisition_per_shard(self):
        shards = SupportShardSet(3, n_shards=2)
        locks = _probe_locks(shards)
        shards.ingest(np.ones((4, 3), dtype=bool), shard=0)
        assert [lock.acquired for lock in locks] == [1, 0]
        shards.merged_patterns()
        assert shards.n_seen == 4
        assert [lock.acquired for lock in locks] == [3, 2]


class TestAggregationServiceBasics:
    def test_accepts_triples(self, part, noise):
        service = AggregationService([("x", part, noise)])
        assert service.attributes == ("x",)

    def test_rejects_duplicate_names(self, spec):
        with pytest.raises(ValidationError):
            AggregationService([spec, spec])

    def test_rejects_empty_schema(self):
        with pytest.raises(ValidationError):
            AggregationService([])

    def test_rejects_bad_config(self, spec):
        with pytest.raises(ValidationError):
            AggregationService([spec], stopping="sometimes")
        with pytest.raises(ValidationError):
            AggregationService([spec], max_iterations=0)
        for bad in (0, 1.5, "2", True):
            with pytest.raises(ValidationError):
                AggregationService([spec], n_shards=bad)

    def test_estimate_requires_data(self, spec):
        service = AggregationService([spec])
        with pytest.raises(ValidationError):
            service.estimate("x")
        with pytest.raises(ValidationError):
            service.estimate_all()

    def test_unknown_attribute(self, spec):
        service = AggregationService([spec])
        with pytest.raises(ValidationError):
            service.estimate("nope")
        with pytest.raises(ValidationError):
            service.ingest({"nope": [0.5]})
        with pytest.raises(ValidationError):
            service.n_seen("nope")
        with pytest.raises(ValidationError):
            service.spec("nope")

    def test_n_seen_shapes(self, spec, noise):
        service = AggregationService([spec], n_shards=2)
        service.ingest({"x": _disclose(noise, 100, seed=0)})
        assert service.n_seen("x") == 100
        assert service.n_seen() == {"x": 100}

    def test_reset(self, spec, noise):
        service = AggregationService([spec])
        service.ingest({"x": _disclose(noise, 500, seed=1)})
        service.estimate("x")
        service.reset()
        assert service.n_seen("x") == 0
        with pytest.raises(ValidationError):
            service.estimate("x")

    def test_one_kernel_cache_across_attributes(self, noise):
        """All attributes share the engine's cache: one miss per grid."""
        part_a = Partition.uniform(0, 1, 10)
        part_b = Partition.uniform(0, 1, 16)
        service = AggregationService(
            [
                AttributeSpec("a", part_a, noise),
                AttributeSpec("b", part_b, noise),
                AttributeSpec("c", part_a, noise),  # same grid as "a"
            ]
        )
        assert service.engine.kernel_cache.misses == 2
        assert service.engine.kernel_cache.hits == 1

    def test_shared_external_kernel_cache(self, part, noise, spec):
        cache = KernelCache()
        StreamingReconstructor(part, noise, kernel_cache=cache)
        AggregationService([spec], kernel_cache=cache)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_config_properties_live(self, spec):
        service = AggregationService([spec], max_iterations=100)
        assert service.max_iterations == 100
        service.tol = 1e-5
        assert service.tol == 1e-5
        with pytest.raises(ValidationError):
            service.stopping = "sometimes"

    def test_convergence_warning_propagates(self, spec, noise):
        service = AggregationService(
            [spec], stopping="delta", tol=1e-15, max_iterations=3
        )
        service.ingest({"x": _disclose(noise, 2_000, seed=5)})
        with pytest.warns(ConvergenceWarning):
            result = service.estimate("x")
        assert not result.converged
        assert result.n_iterations == 3

    def test_warn_false_suppresses_convergence_warning(self, spec, noise):
        """The HTTP front end reads converged from the result instead of
        toggling (process-global, thread-unsafe) warning filters."""
        import warnings

        service = AggregationService(
            [spec], stopping="delta", tol=1e-15, max_iterations=3
        )
        service.ingest({"x": _disclose(noise, 2_000, seed=5)})
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = service.estimate("x", warn=False)
        assert not result.converged


class TestSingleStreamParity:
    """The acceptance contract: merge + estimate is bit-identical to the
    single-stream StreamingReconstructor at any shard count."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_one_refresh_parity(self, part, noise, n_shards):
        w = _disclose(noise, 6_000, seed=11)
        stream = StreamingReconstructor(part, noise)
        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=n_shards
        )
        for chunk in np.array_split(w, 13):
            stream.update(chunk)
            service.ingest({"x": chunk})
        a = stream.estimate()
        b = service.estimate("x")
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.n_iterations == b.n_iterations
        assert a.converged == b.converged
        assert a.chi2_statistic == b.chi2_statistic
        assert a.delta_history == b.delta_history

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_refresh_trajectory_parity(self, part, noise, n_shards):
        """Warm-start trajectories match refresh for refresh."""
        stream = StreamingReconstructor(part, noise)
        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=n_shards
        )
        for day in range(5):
            w = _disclose(noise, 800, seed=100 + day)
            stream.update(w)
            service.ingest({"x": w})
            a = stream.estimate()
            b = service.estimate("x")
            assert np.array_equal(a.distribution.probs, b.distribution.probs)
            assert a.n_iterations == b.n_iterations

    def test_parity_with_gaussian_noise_and_many_attributes(self):
        gauss = GaussianRandomizer(sigma=0.15)
        uni = UniformRandomizer(half_width=0.3)
        parts = [Partition.uniform(0, 1, 10), Partition.uniform(-1, 2, 18)]
        specs = [
            AttributeSpec("g", parts[0], gauss),
            AttributeSpec("u", parts[1], uni),
        ]
        service = AggregationService(specs, n_shards=3)
        streams = {
            spec.name: StreamingReconstructor(spec.x_partition, spec.randomizer)
            for spec in specs
        }
        rng = np.random.default_rng(42)
        for _ in range(3):
            batch = {
                "g": gauss.randomize(rng.uniform(0.2, 0.8, 700), seed=rng),
                "u": uni.randomize(rng.uniform(-0.5, 1.5, 900), seed=rng),
            }
            service.ingest(batch)
            for name, values in batch.items():
                streams[name].update(values)
        results = service.estimate_all()
        for name, stream in streams.items():
            expected = stream.estimate()
            assert np.array_equal(
                expected.distribution.probs, results[name].distribution.probs
            )
            assert expected.n_iterations == results[name].n_iterations

    def test_concurrent_ingestion_parity(self, part, noise):
        """4 threads hammering 4 shards still merge to the exact stream."""
        w = _disclose(noise, 8_000, seed=21)
        chunks = np.array_split(w, 32)
        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=4
        )

        def worker(index):
            for chunk in chunks[index::4]:
                service.ingest({"x": chunk}, shard=index)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(worker, range(4)))

        stream = StreamingReconstructor(part, noise).update(w)
        a = stream.estimate()
        b = service.estimate("x")
        assert service.n_seen("x") == w.size
        assert np.array_equal(a.distribution.probs, b.distribution.probs)

    def test_concurrent_mixed_wire_parity_with_snapshot(self, part, noise):
        """The acceptance contract for the fast path: 4 threads hammering
        mixed JSON-shaped and columnar-decoded batches across 4 shards —
        with a snapshot/restore in the middle of the run — still produce
        estimates bit-identical to the serial single-shard reference."""
        w = _disclose(noise, 8_000, seed=55)
        chunks = np.array_split(w, 48)
        first_half, second_half = chunks[:24], chunks[24:]

        def hammer(service, chunk_list):
            def worker(index):
                for i, chunk in enumerate(chunk_list[index::4]):
                    if i % 2:
                        # the columnar wire: encode, decode (read-only
                        # frombuffer views), prepare, fast-path ingest
                        [(batch, _, _)] = iter_labeled_frames(
                            encode_columns({"x": chunk})
                        )
                        service.ingest_prepared(
                            service.prepare(batch), shard=index
                        )
                    else:
                        # the JSON wire: plain Python float lists
                        service.ingest({"x": chunk.tolist()}, shard=index)

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(worker, range(4)))

        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=4
        )
        hammer(service, first_half)
        mid = service.estimate("x")  # advance the warm start pre-snapshot

        restored = AggregationService.restore(service.snapshot())
        hammer(restored, second_half)
        final = restored.estimate("x")

        stream = StreamingReconstructor(part, noise)
        for chunk in first_half:
            stream.update(chunk)
        expected_mid = stream.estimate()
        for chunk in second_half:
            stream.update(chunk)
        expected_final = stream.estimate()

        assert restored.n_seen("x") == w.size
        assert np.array_equal(
            expected_mid.distribution.probs, mid.distribution.probs
        )
        assert np.array_equal(
            expected_final.distribution.probs, final.distribution.probs
        )
        assert expected_final.n_iterations == final.n_iterations
        assert expected_final.chi2_statistic == final.chi2_statistic

    def test_concurrent_ingestion_single_shard_is_safe(self, part, noise):
        """Contending writers on one shard never lose or corrupt counts."""
        w = _disclose(noise, 4_000, seed=22)
        chunks = np.array_split(w, 40)
        service = AggregationService([AttributeSpec("x", part, noise)])
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait()
            for chunk in chunks[index::4]:
                service.ingest({"x": chunk}, shard=0)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(worker, range(4)))
        counts, seen = service.shards.merged("x")
        assert seen == w.size
        assert counts.sum() == w.size


class TestSnapshotRestore:
    def test_roundtrip_estimates_bit_identical(self, part, noise):
        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=4
        )
        service.ingest({"x": _disclose(noise, 3_000, seed=31)})
        service.estimate("x")  # advance the warm start
        service.ingest({"x": _disclose(noise, 1_000, seed=32)})

        restored = AggregationService.restore(service.snapshot())
        assert restored.attributes == service.attributes
        assert restored.n_shards == 4
        assert restored.n_seen("x") == service.n_seen("x")
        a = service.estimate("x")
        b = restored.estimate("x")
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.n_iterations == b.n_iterations

    def test_restored_service_keeps_ingesting(self, part, noise, tmp_path):
        service = AggregationService([AttributeSpec("x", part, noise)])
        service.ingest({"x": _disclose(noise, 2_000, seed=33)})
        path = tmp_path / "snap.json"
        service.save(path)

        restored = AggregationService.load(path)
        more = _disclose(noise, 2_000, seed=34)
        service.ingest({"x": more})
        restored.ingest({"x": more})
        a = service.estimate("x")
        b = restored.estimate("x")
        assert np.array_equal(a.distribution.probs, b.distribution.probs)

    def test_snapshot_preserves_config(self, part, noise):
        service = AggregationService(
            [AttributeSpec("x", part, noise)],
            stopping="delta",
            tol=1e-6,
            max_iterations=77,
        )
        restored = AggregationService.restore(service.snapshot())
        assert restored.stopping == "delta"
        assert restored.tol == 1e-6
        assert restored.max_iterations == 77

    def test_load_rejects_other_kinds(self, part, tmp_path):
        from repro import serialize

        path = tmp_path / "part.json"
        serialize.save(part, path)
        with pytest.raises(ValidationError):
            AggregationService.load(path)

    def test_restore_rejects_malformed(self):
        with pytest.raises(ValidationError):
            AggregationService.restore(
                {"kind": "aggregation_service", "version": 1}
            )

    def test_restore_rejects_mismatched_counts(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        payload = service.snapshot()
        payload["state"]["x"]["y_counts"] = [1.0, 2.0]
        with pytest.raises(ValidationError):
            AggregationService.restore(payload)

    def test_restore_rejects_mismatched_theta(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        payload = service.snapshot()
        payload["state"]["x"]["theta"] = [0.5, 0.5]
        with pytest.raises(ValidationError):
            AggregationService.restore(payload)


class TestClassConditionalShards:
    """Labeled ingest: one histogram per attribute, per-class counters."""

    def test_labeled_ingest_partitions_by_class(self, part, noise):
        """Labeled and unlabeled records share one histogram; the
        record counters partition them by class."""
        y_part = part.expanded(noise.support_half_width())
        shards = _shards(part, noise, n_shards=2, classes=3)
        shards.ingest({"x": [0.1, 0.5, 0.9]}, classes=[0, 2, 2])
        shards.ingest({"x": [0.3]})  # unlabeled traffic still lands
        counts, seen = shards.merge()
        # rows: unlabeled, class 0, class 1, class 2
        assert seen.tolist() == [[1], [1], [0], [2]]
        assert np.array_equal(
            counts, y_part.histogram([0.1, 0.5, 0.9, 0.3]).astype(float)
        )
        assert shards.merged("x")[1] == 4

    def test_histogram_sums_per_class_histograms(self, part, noise):
        """The one histogram is bitwise the sum of the per-class
        histograms, and the counters hold each class's records."""
        y_part = part.expanded(noise.support_half_width())
        w = _disclose(noise, 4_000, seed=60)
        rng = np.random.default_rng(61)
        labels = rng.integers(0, 2, w.size)
        shards = _shards(part, noise, n_shards=4, classes=2)
        for chunk in np.array_split(np.arange(w.size), 13):
            shards.ingest({"x": w[chunk]}, classes=labels[chunk])
        counts, seen = shards.merge()
        per_class = [y_part.histogram(w[labels == c]) for c in (0, 1)]
        assert np.array_equal(counts, per_class[0] + per_class[1])
        assert seen[:, 0].tolist() == [0] + [int(h.sum()) for h in per_class]

    def test_class_labels_validated(self, part, noise):
        shards = _shards(part, noise, classes=2)
        with pytest.raises(ValidationError):
            shards.ingest({"x": [0.5]}, classes=[2])
        with pytest.raises(ValidationError):
            shards.ingest({"x": [0.5]}, classes=[-1])
        with pytest.raises(ValidationError):
            shards.ingest({"x": [0.5]}, classes=[0.5])
        with pytest.raises(ValidationError):
            shards.ingest({"x": [0.5]}, classes=[0, 1])
        for bad in (-1, True, 1.5, "2"):  # refused, never coerced
            with pytest.raises(ValidationError, match="classes"):
                Domain([AttributeSpec("x", part, noise)], classes=bad)

    def test_classes_need_class_aware_layout(self, part, noise):
        shards = _shards(part, noise)
        with pytest.raises(ValidationError, match="class"):
            shards.ingest({"x": [0.5]}, classes=[0])

    def test_layout_compatibility_includes_classes(self, part, noise):
        plain = _shards(part, noise)
        labeled = _shards(part, noise, classes=2)
        with pytest.raises(ValidationError):
            labeled.ingest_prepared(plain.layout.prepare({"x": [0.5]}))

    def test_estimates_unchanged_by_class_partitioning(self, part, noise):
        """Class-aware and class-unaware services serve bit-identical
        estimates for the same stream."""
        w = _disclose(noise, 3_000, seed=62)
        labels = (np.arange(w.size) % 2).astype(int)
        plain = AggregationService([AttributeSpec("x", part, noise)])
        labeled = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=3, classes=2
        )
        plain.ingest({"x": w})
        for chunk in np.array_split(np.arange(w.size), 7):
            labeled.ingest({"x": w[chunk]}, classes=labels[chunk])
        a = plain.estimate("x")
        b = labeled.estimate("x")
        assert np.array_equal(a.distribution.probs, b.distribution.probs)
        assert a.n_iterations == b.n_iterations

    def test_n_seen_by_class(self, part, noise):
        service = AggregationService(
            [AttributeSpec("x", part, noise)], classes=2
        )
        service.ingest({"x": [0.1, 0.2]}, classes=[0, 1])
        service.ingest({"x": [0.3]})
        assert service.n_seen_by_class("x") == {
            "unlabeled": 1, "0": 1, "1": 1,
        }
        with pytest.raises(ValidationError):
            service.n_seen_by_class("nope")


class TestClassAwareSnapshots:
    def test_roundtrip_preserves_class_partials(self, part, noise):
        """The one histogram and the per-class counters survive."""
        service = AggregationService(
            [AttributeSpec("x", part, noise)], n_shards=3, classes=2
        )
        w = _disclose(noise, 2_000, seed=63)
        labels = (np.arange(w.size) % 2).astype(int)
        service.ingest({"x": w}, classes=labels)
        service.ingest({"x": [0.5, 0.6]})  # plus unlabeled traffic
        restored = AggregationService.restore(service.snapshot())
        assert restored.classes == 2
        assert np.array_equal(
            restored.shards.merged("x")[0], service.shards.merged("x")[0]
        )
        assert restored.n_seen_by_class("x") == service.n_seen_by_class("x")
        assert restored.n_seen("x") == service.n_seen("x")
        a = service.estimate("x")
        b = restored.estimate("x")
        assert np.array_equal(a.distribution.probs, b.distribution.probs)

    def test_classless_snapshot_format_unchanged(self, part, noise):
        """PR 3/4 snapshots (no 'classes' key, flat y_counts) restore."""
        service = AggregationService([AttributeSpec("x", part, noise)])
        service.ingest({"x": _disclose(noise, 500, seed=64)})
        payload = service.snapshot()
        assert payload["classes"] == 0
        assert isinstance(payload["state"]["x"]["y_counts"][0], float)
        del payload["classes"]  # an old snapshot predates the key
        restored = AggregationService.restore(payload)
        assert restored.n_seen("x") == 500

    def test_block_count_mismatch_is_serialization_error(self):
        """A snapshot with one row per class block must hold
        ``classes + 1`` of them."""
        payload = _parent_payload()
        state = payload["state"]["age"]
        state["y_counts"] = state["y_counts"][:2]
        with pytest.raises(SerializationError, match="class"):
            AggregationService.restore(payload)

    def test_ragged_counts_are_serialization_error_not_numpy(self):
        """The bugfix: a ragged y_counts row used to surface as a raw
        numpy error."""
        payload = _parent_payload()
        payload["state"]["age"]["y_counts"][1] = [1.0, 2.0]  # wrong bin count
        with pytest.raises(SerializationError):
            AggregationService.restore(payload)
        payload = _parent_payload()
        payload["state"]["age"]["y_counts"] = [[1.0], [2.0, 3.0], 4.0]
        with pytest.raises(SerializationError):
            AggregationService.restore(payload)

    def test_non_numeric_classes_field_is_clean_error(self, part, noise):
        """A hand-edited snapshot with classes='two' must not traceback."""
        service = AggregationService([AttributeSpec("x", part, noise)])
        payload = service.snapshot()
        payload["classes"] = "two"
        with pytest.raises(SerializationError, match="malformed"):
            AggregationService.restore(payload)

    def test_n_seen_disagreement_is_serialization_error(self, part, noise):
        service = AggregationService([AttributeSpec("x", part, noise)])
        service.ingest({"x": [0.5]})
        payload = service.snapshot()
        payload["state"]["x"]["n_seen"] = 99
        with pytest.raises(SerializationError, match="n_seen"):
            AggregationService.restore(payload)


class TestParentSnapshot:
    """A class-aware snapshot written with one histogram row per class
    block restores to the state of the service that wrote it."""

    def test_restores_to_the_writing_service(self):
        expected = json.loads(
            (SNAPSHOTS / "classes2_blocks.expected.json").read_text()
        )
        service = AggregationService.load(PARENT_SNAPSHOT)
        for name, want in expected.items():
            assert service.n_seen(name) == want["n_seen"]
            assert service.n_seen_by_class(name) == want["n_seen_by_class"]
            result = service.estimate(name, warn=False)
            assert result.distribution.probs.tolist() == want["probs"]
            assert result.n_iterations == want["n_iterations"]

    def test_resaves_as_one_histogram_plus_class_counts(self):
        payload = _current_payload()
        state = payload["state"]["age"]
        # 50 unlabeled ages, 323 of class 0 and 277 of class 1
        assert state["n_seen_by_class"] == [50, 323, 277]
        assert sum(state["y_counts"]) == state["n_seen"] == 650
        restored = AggregationService.restore(payload)
        parent = AggregationService.load(PARENT_SNAPSHOT)
        for name in parent.attributes:
            assert restored.n_seen_by_class(name) == parent.n_seen_by_class(name)
            a = restored.estimate(name, warn=False)
            b = parent.estimate(name, warn=False)
            assert np.array_equal(a.distribution.probs, b.distribution.probs)
            assert a.n_iterations == b.n_iterations


def _corrupt_counts(kind: str, payload: dict) -> None:
    """Corrupt one histogram row of ``age``, keeping its total unless
    the corruption is an infinity."""
    y_counts = payload["state"]["age"]["y_counts"]
    row = y_counts[1] if isinstance(y_counts[0], list) else y_counts
    if kind == "infinite":
        row[0] = float("inf")
        return
    value = -1.0 if kind == "negative" else row[0] + 0.5
    fullest = int(np.argmax(row))
    row[fullest] += row[0] - value
    row[0] = value


def _corrupt_theta(kind: str, payload: dict) -> None:
    state = payload["state"]["age"]
    if kind == "nan":
        state["theta"] = [float("nan")] * len(state["theta"])
    elif kind == "mixed_signs":
        state["theta"] = [t if i % 2 else -t for i, t in enumerate(state["theta"])]
    else:
        state["theta"] = [0.0] * len(state["theta"])


class TestSnapshotValidation:
    """Snapshot files are outside input: counts that no service could
    have written raise SerializationError, and recovery falls back to
    the previous generation."""

    FORMATS = {"blocks": _parent_payload, "current": _current_payload}

    @staticmethod
    def _rejected(payload: dict, tmp_path, match=None) -> None:
        with pytest.raises(SerializationError, match=match):
            AggregationService.restore(payload)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(payload))  # no integrity digest
        previous = previous_snapshot_path(path)
        previous.write_bytes(PARENT_SNAPSHOT.read_bytes())
        service, used = recover_service(path)
        assert used == previous
        assert service.n_seen("age") == 650

    @pytest.mark.parametrize("fmt", ["blocks", "current"])
    @pytest.mark.parametrize("kind", ["negative", "fractional", "infinite"])
    def test_corrupt_counts(self, fmt, kind, tmp_path):
        payload = self.FORMATS[fmt]()
        _corrupt_counts(kind, payload)
        self._rejected(payload, tmp_path)

    @pytest.mark.parametrize("fmt", ["blocks", "current"])
    @pytest.mark.parametrize("kind", ["nan", "mixed_signs", "zeros"])
    def test_corrupt_theta(self, fmt, kind, tmp_path):
        payload = self.FORMATS[fmt]()
        _corrupt_theta(kind, payload)
        self._rejected(payload, tmp_path)

    @pytest.mark.parametrize("fmt", ["blocks", "current"])
    def test_infinite_n_seen(self, fmt, tmp_path):
        payload = self.FORMATS[fmt]()
        payload["state"]["age"]["n_seen"] = float("inf")
        self._rejected(payload, tmp_path)

    @pytest.mark.parametrize(
        "by_class",
        [[-1, 374, 277], [50.5, 322.5, 277], [51, 323, 277], [50, 600]],
        ids=["negative", "fractional", "wrong_sum", "wrong_length"],
    )
    def test_corrupt_n_seen_by_class(self, by_class, tmp_path):
        payload = _current_payload()
        payload["state"]["age"]["n_seen_by_class"] = by_class
        self._rejected(payload, tmp_path)


    @pytest.mark.parametrize(
        "field", ["y_counts", "n_seen_by_class", "theta", "edges"]
    )
    def test_numeric_string(self, field, tmp_path):
        """NumPy would parse "3" as 3; a snapshot field must not."""
        payload = _current_payload()
        values = _snapshot_field(payload, field)
        values[0] = str(values[0])
        self._rejected(payload, tmp_path, match="not numeric")

    @pytest.mark.parametrize("field", ["y_counts", "n_seen_by_class", "theta"])
    def test_boolean(self, field, tmp_path):
        """NumPy would read True as 1; a snapshot field must not."""
        payload = _current_payload()
        values = _snapshot_field(payload, field)
        low = int(np.argmin(values))
        if field != "theta":  # keep the record total: only the type is wrong
            values[int(np.argmax(values))] += values[low] - 1
        values[low] = True
        self._rejected(payload, tmp_path, match="not numeric")

    @pytest.mark.parametrize("classes", ["2", 2.5, 2.0, True, -1, "two", None])
    def test_classes_must_be_a_non_negative_integer(self, classes, tmp_path):
        payload = _current_payload()
        payload["classes"] = classes
        self._rejected(payload, tmp_path, match="malformed")

    @pytest.mark.parametrize(
        "path",
        [
            ("config",),
            ("attributes",),
            ("n_shards",),
            ("state",),
            ("state", "age", "theta"),
            ("state", "age", "n_seen"),
        ],
        ids="/".join,
    )
    def test_missing_key(self, path, tmp_path):
        payload = _current_payload()
        *parents, key = path
        target = payload
        for parent in parents:
            target = target[parent]
        del target[key]
        self._rejected(payload, tmp_path, match="malformed")

    @pytest.mark.parametrize("section", ["config", "attributes", "state"])
    def test_section_of_the_wrong_type(self, section, tmp_path):
        payload = _current_payload()
        payload[section] = [] if isinstance(payload[section], dict) else {}
        self._rejected(payload, tmp_path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"n_shards": 0}, "n_shards must be >= 1"),
            ({"config": {"stopping": "never"}}, "stopping"),
            ({"state": {"nope": {}}}, "unknown attribute 'nope'"),
        ],
        ids=["n_shards", "config", "unknown_attribute"],
    )
    def test_nested_check_keeps_its_message(self, edit, match, tmp_path):
        """The checks the service constructor makes raise
        ValidationError; a restore turns them into SerializationError
        with the same message."""
        payload = _current_payload()
        for key, value in edit.items():
            if isinstance(value, dict):
                payload[key].update(value)
            else:
                payload[key] = value
        self._rejected(payload, tmp_path, match=match)


def _snapshot_field(payload: dict, field: str) -> list:
    """The list behind one numeric snapshot field of attribute ``age``."""
    if field == "edges":
        [attr] = [a for a in payload["attributes"] if a["name"] == "age"]
        return attr["edges"]
    return payload["state"]["age"][field]


class TestServiceFromSpec:
    def test_builds_attributes(self):
        service = service_from_spec(
            {
                "shards": 3,
                "classes": 2,
                "intervals": 10,
                "attributes": [
                    {"name": "age", "low": 20, "high": 80, "privacy": 1.0},
                    {
                        "name": "salary",
                        "low": 0,
                        "high": 100_000,
                        "noise": "gaussian",
                        "privacy": 0.5,
                        "intervals": 16,
                    },
                ],
            }
        )
        assert service.attributes == ("age", "salary")
        assert service.n_shards == 3
        assert service.classes == 2
        assert service.spec("age").x_partition.n_intervals == 10
        assert service.spec("salary").x_partition.n_intervals == 16
        assert isinstance(service.spec("salary").randomizer, GaussianRandomizer)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValidationError):
            service_from_spec("not a dict")
        with pytest.raises(ValidationError):
            service_from_spec({"attributes": []})
        with pytest.raises(ValidationError):
            service_from_spec({"attributes": [{"name": "x"}]})
        with pytest.raises(ValidationError):
            service_from_spec(
                {
                    "attributes": [
                        {"name": "x", "low": 0, "high": 1, "noise": "laplace"}
                    ]
                }
            )
        attributes = [{"name": "x", "low": 0, "high": 1}]
        for bad in (0, 1.5, "x", True):
            with pytest.raises(ValidationError):
                service_from_spec({"shards": bad, "attributes": attributes})

    @pytest.mark.parametrize(
        "top, attribute, field",
        [
            ({"classes": True}, {}, "'classes'"),
            ({"classes": 2.5}, {}, "'classes'"),
            ({"classes": "2"}, {}, "'classes'"),
            ({}, {"intervals": 24.7}, "'intervals'"),
            ({"intervals": "12"}, {}, "'intervals'"),
            ({}, {"low": "twenty"}, "'low'"),
        ],
        ids=[
            "classes_bool", "classes_float", "classes_string",
            "attribute_intervals_float", "spec_intervals_string", "low_string",
        ],
    )
    def test_numbers_are_checked_not_coerced(self, top, attribute, field):
        """Spec numbers are outside input: a boolean, a string or a
        fractional count is refused with the field's name, never read as
        1, a number or a truncated integer."""
        spec = {
            **top,
            "attributes": [{"name": "x", "low": 0, "high": 1, **attribute}],
        }
        with pytest.raises(ValidationError, match=field):
            service_from_spec(spec)
