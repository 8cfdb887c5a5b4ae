"""Tests for decision-tree training over the service (repro.service.training).

The load-bearing assertions are the parity tests: a tree grown from the
service's buffer of labeled randomized rows must be **bit-identical** —
same splits, same thresholds, same leaf counts — to the offline
``PrivacyPreservingClassifier`` pipeline fed the same randomized rows.
Training reads that buffer only, so labeled records that reach the
shards any other way (direct ``service.ingest``, a restored snapshot)
never change a tree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Partition, UniformRandomizer
from repro.datasets import quest
from repro.exceptions import ValidationError
from repro.service import (
    AggregationService,
    AttributeSpec,
    TrainedModel,
    TrainingService,
)
from repro.tree.pipeline import PrivacyPreservingClassifier

N_INTERVALS = 25


@pytest.fixture(scope="module")
def workload():
    """A Quest training table, its randomization, and matching specs."""
    train = quest.generate(2_500, function=2, seed=17)
    randomized, randomizers = quest.randomize(
        train, kind="uniform", privacy=1.0, seed=18
    )
    specs = [
        AttributeSpec(
            name,
            train.attribute(name).partition(N_INTERVALS),
            randomizers[name],
        )
        for name in train.attribute_names
    ]
    return train, randomized, randomizers, specs


def _stream_in(training, train, randomized, *, batch_size=301, shards=False):
    """Ingest the randomized rows in table order (split into batches)."""
    names = train.attribute_names
    w = randomized.matrix()
    labels = train.labels
    for index, lo in enumerate(range(0, labels.size, batch_size)):
        sl = slice(lo, lo + batch_size)
        batch = {name: w[sl, j] for j, name in enumerate(names)}
        shard = index % training.service.n_shards if shards else None
        training.ingest(batch, labels[sl], shard=shard)


def _offline(strategy, train, randomized, randomizers):
    classifier = PrivacyPreservingClassifier(
        strategy, noise="uniform", privacy=1.0, n_intervals=N_INTERVALS, seed=3
    )
    classifier.fit(train, randomized_table=randomized, randomizers=randomizers)
    return classifier


class TestOfflinePipelineParity:
    """The tentpole acceptance criterion."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_byclass_bit_identical(self, workload, n_shards):
        train, randomized, randomizers, specs = workload
        service = AggregationService(specs, n_shards=n_shards, classes=2)
        training = TrainingService(service)
        _stream_in(training, train, randomized, shards=n_shards > 1)
        model = training.train("byclass")
        offline = _offline("byclass", train, randomized, randomizers)
        assert model.tree.identical_to(offline.tree_)
        assert model.n_train == train.n_records
        # identical trees classify identically
        test = quest.generate(800, function=2, seed=19)
        assert model.tree.score(test.matrix(), test.labels) == offline.score(test)

    @pytest.mark.parametrize("strategy", ["global", "local"])
    def test_other_strategies_bit_identical(self, workload, strategy):
        train, randomized, randomizers, specs = workload
        service = AggregationService(specs, n_shards=2, classes=2)
        training = TrainingService(service)
        _stream_in(training, train, randomized, shards=True)
        model = training.train(strategy)
        offline = _offline(strategy, train, randomized, randomizers)
        assert model.tree.identical_to(offline.tree_)

    def test_histogram_sums_per_class_histograms(self, workload):
        """The one histogram the estimates, snapshots and cluster
        partials serve is the sum of the per-class noise-grid histograms
        of the buffered rows, and the per-class counters that /stats
        serves count those rows."""
        train, randomized, randomizers, specs = workload
        service = AggregationService(specs, classes=2)
        training = TrainingService(service)
        _stream_in(training, train, randomized)
        w = randomized.matrix()
        labels = train.labels
        by_class = {"unlabeled": 0}
        by_class.update({str(c): int((labels == c).sum()) for c in (0, 1)})
        for j, name in enumerate(train.attribute_names[:3]):
            spec = service.spec(name)
            y_partition, _ = service.engine.kernel_for(
                spec.x_partition, spec.randomizer
            )
            per_class = [y_partition.histogram(w[labels == c, j]) for c in (0, 1)]
            counts, _ = service.shards.merged(name)
            assert np.array_equal(counts, per_class[0] + per_class[1])
            assert service.n_seen_by_class(name) == by_class

    def test_unlabeled_records_do_not_skew_training(self, workload):
        """v1 (unlabeled) traffic lands in its own partition; the trained
        tree only sees the labeled stream."""
        train, randomized, randomizers, specs = workload
        service = AggregationService(specs, classes=2)
        training = TrainingService(service)
        _stream_in(training, train, randomized)
        # plain unlabeled ingest around the training service is fine
        service.ingest({"age": [30.0, 40.0, 50.0]})
        model = training.train("byclass")
        offline = _offline("byclass", train, randomized, randomizers)
        assert model.tree.identical_to(offline.tree_)


class TestTrainingServiceBasics:
    @pytest.fixture
    def small(self):
        noise = UniformRandomizer(half_width=0.25)
        service = AggregationService(
            [AttributeSpec("x", Partition.uniform(0, 1, 8), noise)],
            classes=2,
        )
        return service, TrainingService(service), noise

    def test_requires_class_aware_service(self):
        noise = UniformRandomizer(half_width=0.25)
        service = AggregationService(
            [AttributeSpec("x", Partition.uniform(0, 1, 8), noise)]
        )
        with pytest.raises(ValidationError, match="class-aware"):
            TrainingService(service)

    def test_train_requires_labeled_rows(self, small):
        _, training, _ = small
        with pytest.raises(ValidationError, match="no labeled records"):
            training.train("byclass")

    def test_rejects_unknown_strategy(self, small):
        _, training, _ = small
        with pytest.raises(ValidationError, match="strategy"):
            training.train("original")

    def test_rows_need_every_attribute(self):
        noise = UniformRandomizer(half_width=0.25)
        service = AggregationService(
            [
                AttributeSpec("a", Partition.uniform(0, 1, 8), noise),
                AttributeSpec("b", Partition.uniform(0, 1, 8), noise),
            ],
            classes=2,
        )
        training = TrainingService(service)
        with pytest.raises(ValidationError, match="missing"):
            training.ingest({"a": [0.5]}, [0])

    def test_rows_need_one_class_per_record(self, small):
        _, training, _ = small
        with pytest.raises(ValidationError, match="class"):
            training.ingest({"x": [0.5, 0.6]}, [0])

    def test_class_labels_validated(self, small):
        _, training, _ = small
        with pytest.raises(ValidationError):
            training.ingest({"x": [0.5]}, [7])
        with pytest.raises(ValidationError):
            training.ingest({"x": [0.5]}, [-1])
        with pytest.raises(ValidationError):
            training.ingest({"x": [0.5]}, [[0]])

    def test_n_buffered_counts_rows(self, small):
        _, training, noise = small
        assert training.n_buffered == 0
        training.ingest({"x": noise.randomize([0.5, 0.6], seed=0)}, [0, 1])
        assert training.n_buffered == 2

    def test_model_lookup(self, small):
        _, training, noise = small
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [rng.uniform(0, 0.4, 200), rng.uniform(0.6, 1.0, 200)]
        )
        training.ingest(
            {"x": noise.randomize(x, seed=1)}, np.repeat([0, 1], 200)
        )
        assert training.model() is None
        model = training.train("byclass")
        assert training.model() is model
        assert training.model("byclass") is model
        assert training.model("global") is None
        assert isinstance(model, TrainedModel)
        assert model.classes == 2

    @pytest.mark.parametrize("strategy", ["global", "byclass", "local"])
    def test_labeled_records_around_the_buffer_do_not_reach_training(
        self, small, strategy
    ):
        """Labeled records that bypass the training buffer (e.g. via
        service.ingest) land in the shard blocks but never in a tree:
        train() reads the buffered rows only."""
        service, training, noise = small
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 300)
        training.ingest(
            {"x": noise.randomize(x, seed=2)},
            (x > 0.5).astype(int),
        )
        before = training.train(strategy)
        around = rng.uniform(0, 1, 200)
        service.ingest(
            {"x": noise.randomize(around, seed=3)},
            classes=(around < 0.5).astype(int),
        )
        after = training.train(strategy)
        assert after.n_train == before.n_train == 300
        assert after.tree.identical_to(before.tree)

    def test_train_racing_labeled_ingest_is_consistent(self, small):
        """A train concurrent with labeled ingest sees whole batches: each
        batch enters the buffer as one block under the buffer lock, and
        train() copies the block list once and reads nothing else."""
        import threading

        _, training, noise = small
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, 2_000)
        w = noise.randomize(x, seed=10)
        labels = (x > 0.5).astype(int)
        n_batches = 200
        errors = []

        def ingester():
            for i in range(n_batches):
                sl = slice((i * 20) % 1_900, (i * 20) % 1_900 + 20)
                try:
                    training.ingest({"x": w[sl]}, labels[sl])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        training.ingest({"x": w[:100]}, labels[:100])  # seed the buffer
        thread = threading.Thread(target=ingester)
        thread.start()
        try:
            for _ in range(10):
                model = training.train("byclass")
                assert model.n_train >= 100
                assert (model.n_train - 100) % 20 == 0
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not errors
        assert training.n_buffered == 100 + 20 * n_batches

    def test_restored_snapshot_history_never_reaches_training(self, small):
        """A --train server restarted from a snapshot keeps training: the
        pre-restore labeled history stays in the shards, never in the
        buffer, so train() runs on the rows ingested since."""
        service, training, noise = small
        rng = np.random.default_rng(11)
        x1 = rng.uniform(0, 1, 400)
        training.ingest(
            {"x": noise.randomize(x1, seed=12)}, (x1 > 0.5).astype(int)
        )
        restored = AggregationService.restore(service.snapshot())
        fresh = TrainingService(restored)  # buffer empty, aggregates full
        x2 = np.concatenate(
            [rng.uniform(0, 0.4, 300), rng.uniform(0.6, 1.0, 300)]
        )
        labels2 = np.repeat([0, 1], 300)
        fresh.ingest({"x": noise.randomize(x2, seed=13)}, labels2)
        model = fresh.train("byclass")
        assert model.n_train == 600  # only the post-restore rows
        # and it matches a service that never saw the old history
        clean_service = AggregationService(
            [AttributeSpec("x", Partition.uniform(0, 1, 8), noise)],
            classes=2,
        )
        clean = TrainingService(clean_service)
        clean.ingest({"x": noise.randomize(x2, seed=13)}, labels2)
        assert model.tree.identical_to(clean.train("byclass").tree)

    def test_class_aware_snapshot_internally_consistent(self, small):
        """Snapshot n_seen always equals the summed counts and the
        summed per-class counters, so a restore can never reject a
        snapshot the server itself wrote."""
        service, training, noise = small
        training.ingest({"x": noise.randomize([0.2, 0.8], seed=4)}, [0, 1])
        payload = service.snapshot()
        state = payload["state"]["x"]
        assert state["n_seen"] == sum(state["y_counts"])
        assert state["n_seen"] == sum(state["n_seen_by_class"])
        AggregationService.restore(payload)  # must not raise

    def test_ingested_wire_views_are_materialized(self, small):
        """Zero-copy frombuffer views must not keep the request body
        alive (or mutate under the buffer) — rows() copies."""
        from repro.service import encode_columns, iter_labeled_frames

        _, training, noise = small
        w = noise.randomize(np.linspace(0.1, 0.9, 50), seed=3)
        frame = encode_columns({"x": w}, classes=[0, 1] * 25)
        [(batch, classes, _)] = iter_labeled_frames(frame)
        rows = training.rows(*training.service.domain.check(batch, classes))
        assert rows[0].flags.owndata or rows[0].base is None
        assert rows[0].flags.writeable
        training.absorb_rows(rows)
        assert training.n_buffered == 50


class TestOneCheckPerLabeledBatch:
    """Deterministic work counts: a labeled batch is validated once, and
    the coordinator checks its synced rows without locating them."""

    NAMES = ("age", "salary", "loan", "hvalue")

    def _service(self, n_shards=1):
        noise = UniformRandomizer(half_width=0.25)
        return AggregationService(
            [AttributeSpec(name, Partition.uniform(0, 1, 12), noise)
             for name in self.NAMES],
            n_shards=n_shards,
            classes=2,
        )

    def _labeled(self, rows=64):
        rng = np.random.default_rng(21)
        batch = {name: rng.uniform(0, 1, rows) for name in self.NAMES}
        return batch, rng.integers(0, 2, rows)

    def test_labeled_body_checks_each_column_once(self, monkeypatch):
        """A 4-attribute v2 body through a training server's ingest:
        one check_1d_array per column, never a second pass over the rows."""
        import sys

        from repro.service import ServiceHTTPServer, encode_columns
        from repro.service.wire import iter_labeled_frames
        from repro.utils import validation

        real = validation.check_1d_array
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1] if len(args) > 1 else kwargs.get("name"))
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "check_1d_array", None) is real
            ):
                monkeypatch.setattr(module, "check_1d_array", counting)
        service = self._service()
        training = TrainingService(service)
        server = ServiceHTTPServer(service, port=0, training=training)
        try:
            batch, labels = self._labeled()
            body = encode_columns(batch, classes=labels)
            records, frames = server._absorb_frames(iter_labeled_frames(body))
        finally:
            server.close()
        assert (records, frames) == (64 * len(self.NAMES), 1)
        assert sorted(calls) == sorted(f"batch[{n!r}]" for n in self.NAMES)
        assert training.n_buffered == 64

    def test_coordinator_rows_are_checked_never_located(self, monkeypatch):
        """apply_push of a sync body with one row frame locates nothing:
        the partial frame carries the counts, the rows only feed /train."""
        from repro.core.partition import Partition as PartitionClass
        from repro.service import ClusterCoordinator, export_sync_body

        worker = self._service()
        worker_training = TrainingService(worker)
        batch, labels = self._labeled()
        worker_training.ingest(batch, labels)
        body = export_sync_body(worker, worker_training)

        coordinator_service = self._service()
        coordinator = ClusterCoordinator(
            coordinator_service,
            training=TrainingService(coordinator_service),
            fetch=lambda url, **_: body,
        )
        coordinator.register(0, "http://127.0.0.1:0")
        real = PartitionClass.locate
        located = []

        def counting(self, values):
            located.append(len(values))
            return real(self, values)

        monkeypatch.setattr(PartitionClass, "locate", counting)
        assert coordinator.apply_push(0, body, rows=True) == 64 * len(self.NAMES)
        assert located == []
        monkeypatch.undo()
        assert coordinator.train("byclass").n_train == 64
        [(matrix, buffered)] = coordinator.training.export_rows()
        assert np.array_equal(buffered, labels)
        assert np.array_equal(
            matrix, np.column_stack([batch[name] for name in self.NAMES])
        )
