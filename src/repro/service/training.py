"""Decision-tree training over the live aggregation service (paper §4).

The paper's headline result is not the reconstructed histogram but the
classifier trained on it: ByClass/Local reconstruction feeding ID3-style
tree induction recovers near-original accuracy from randomized data.
:class:`TrainingService` closes that loop for the serving tier — the
same server that ingests randomized streams at memory bandwidth can now
*mine* them.

Division of labour:

* the **class-conditional shard aggregates**
  (:meth:`~repro.service.AggregationService.merged_by_class`) drive every
  distribution reconstruction: one warm cache-shared
  :class:`~repro.core.engine.ReconstructionEngine` sweep per
  (attribute, class), at cost O(bins) regardless of stream length,
* a **training buffer** of the labeled randomized rows drives the
  per-record steps the histograms cannot carry — the paper's sort-based
  record correction (:func:`~repro.core.correction.correct_records`) and
  the tree's per-node record routing.  The buffer only ever holds
  *randomized* values; clean data never reaches the server.

Bit-identity contract
---------------------
Given the same labeled randomized rows (in the same order) and default
engine settings, :meth:`TrainingService.train` produces a tree
**bit-identical** — same splits, same thresholds, same leaf counts — to
the offline :class:`~repro.tree.pipeline.PrivacyPreservingClassifier`
fed the same pre-randomized table (the ``experiments/classification.py``
path), because every float operation is shared: the per-class noise-grid
histograms held by the shards equal ``y_partition.histogram`` of the
per-class values exactly (integer counts), the engine's batched sweeps
are bit-identical to the looped reference, and correction + tree growth
run the very same code.  ``tests/test_training.py`` and
``bench_e22_train_over_service`` pin this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.correction import correct_records
from repro.exceptions import ValidationError
from repro.tree.tree import DecisionTreeClassifier
from repro.utils.validation import check_1d_array, check_label_column

#: strategies the service can train: the paper's §4.1 reconstruction
#: algorithms (the raw-data baselines need clean records a server never has)
TRAINING_STRATEGIES = ("global", "byclass", "local")


@dataclass(frozen=True)
class TrainedModel:
    """A decision tree grown by :class:`TrainingService`, plus provenance.

    Attributes
    ----------
    strategy:
        Training strategy (``"global"``, ``"byclass"``, or ``"local"``).
    tree:
        The fitted :class:`~repro.tree.tree.DecisionTreeClassifier`.
    n_train:
        Labeled records the tree was grown from.
    attributes:
        Attribute names, in training column order.
    classes:
        Class-label count of the service that trained it.
    fit_seconds:
        Wall-clock training time (reconstruction + correction + growth).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition
    >>> from repro.service import TrainedModel
    >>> from repro.tree.tree import DecisionTreeClassifier
    >>> tree = DecisionTreeClassifier([Partition.uniform(0, 1, 4)])
    >>> _ = tree.fit(np.array([[0.1], [0.9]]), np.array([0, 1]))
    >>> model = TrainedModel("byclass", tree, 2, ("x",), 2, 0.01)
    >>> model.strategy, model.n_train
    ('byclass', 2)
    """

    strategy: str
    tree: DecisionTreeClassifier
    n_train: int
    attributes: tuple
    classes: int
    fit_seconds: float

    def save(self, path) -> None:
        """Persist as a ``trained_tree`` snapshot (:mod:`repro.serialize`)."""
        from repro import serialize

        serialize.save(self, path)


class TrainingService:
    """Grow the paper's decision trees from a live, class-aware service.

    Parameters
    ----------
    service:
        A class-aware :class:`~repro.service.AggregationService`
        (``classes >= 1``).  Its class-conditional aggregates feed the
        reconstructions; its engine (and kernel cache) runs the sweeps.
    criterion / max_depth / min_records_split / min_gain / local_min_records:
        Tree-growth settings, with exactly the
        :class:`~repro.tree.pipeline.PrivacyPreservingClassifier`
        defaults and ``"auto"`` resolutions, so a service-trained tree is
        bit-identical to the offline pipeline on the same data.

    Labeled rows enter through :meth:`ingest` (or the HTTP front end's
    labeled wire frames): the batch lands in the service's per-class
    shard blocks *and* in the training buffer.  Training rows must
    carry every attribute — trees route records on full rows.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import (
    ...     AggregationService, AttributeSpec, TrainingService,
    ... )
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> service = AggregationService(
    ...     [AttributeSpec("x", Partition.uniform(0, 1, 8), noise)],
    ...     classes=2,
    ... )
    >>> training = TrainingService(service)
    >>> rng = np.random.default_rng(0)
    >>> x = np.concatenate(
    ...     [rng.uniform(0.0, 0.45, 400), rng.uniform(0.55, 1.0, 400)]
    ... )
    >>> labels = np.repeat([0, 1], 400)
    >>> training.ingest({"x": noise.randomize(x, seed=1)}, labels)
    800
    >>> model = training.train("byclass")
    >>> model.strategy, model.n_train
    ('byclass', 800)
    >>> bool(model.tree.n_nodes >= 1)
    True
    """

    def __init__(
        self,
        service,
        *,
        criterion: str = "gini",
        max_depth="auto",
        min_records_split="auto",
        min_gain: float = 0.0,
        local_min_records: int = 100,
    ) -> None:
        if service.classes < 1:
            raise ValidationError(
                "training needs a class-aware service: build the "
                "AggregationService with classes >= 1"
            )
        self.service = service
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_records_split = min_records_split
        self.min_gain = float(min_gain)
        self.local_min_records = int(local_min_records)
        self._rows: list = []  # (matrix (n, d), labels (n,)) blocks
        self._rows_lock = threading.Lock()
        # Aggregates already in the shards predate this training service
        # (a restored snapshot's labeled history, typically).  They are
        # subtracted from every aggregate read, so training always runs
        # on exactly the rows this instance buffered — a restarted
        # --train server keeps training on its new stream instead of
        # failing the aggregates-vs-buffer check forever.
        self._baseline = {
            name: service.merged_by_class(name) for name in service.attributes
        }
        # Holds the shard accumulate and the buffer append of one labeled
        # batch together, and train()'s aggregate reads against both, so
        # a train racing a labeled ingest can never observe shards and
        # buffer mid-update (the consistency check would misfire).
        # Unlabeled ingest never takes it.
        self.sync_lock = threading.RLock()
        self._models: dict = {}
        self._latest: str | None = None
        self._models_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Labeled ingestion
    # ------------------------------------------------------------------
    @property
    def n_buffered(self) -> int:
        """Labeled training rows currently buffered."""
        with self._rows_lock:
            return sum(labels.size for _, labels in self._rows)

    def prepare_rows(self, batch, classes) -> tuple:
        """Normalize a labeled batch into full training rows (pure).

        Validates that every service attribute is present with one value
        per class label and returns a ``(matrix, labels)`` pair of
        fresh arrays (wire-decoded zero-copy views are materialized here
        — the request body's buffer is not retained).
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        names = self.service.attributes
        missing = [name for name in names if name not in batch]
        if missing:
            raise ValidationError(
                f"training rows need every attribute; missing {missing} "
                f"(the service collects {list(names)})"
            )
        labels = check_label_column(
            classes, n_classes=self.service.classes
        ).astype(np.int64, copy=True)
        columns = []
        for name in names:
            arr = check_1d_array(
                batch[name], f"batch[{name!r}]", allow_empty=True
            )
            if arr.size != labels.size:
                raise ValidationError(
                    f"batch[{name!r}] has {arr.size} value(s) but the "
                    f"class column has {labels.size}"
                )
            columns.append(np.array(arr, dtype=float))
        matrix = (
            np.column_stack(columns)
            if labels.size
            else np.empty((0, len(names)))
        )
        return matrix, labels

    def absorb_rows(self, rows: tuple) -> int:
        """Append rows prepared by :meth:`prepare_rows`; return row count."""
        matrix, labels = rows
        if labels.size == 0:
            return 0
        with self._rows_lock:
            self._rows.append((matrix, labels))
        return int(labels.size)

    def export_rows(self) -> list:
        """Copies of the buffered ``(matrix, labels)`` blocks, in order.

        The worker side of cluster row sync: shipped (as labeled record
        frames after the partial frame) under :attr:`sync_lock` together
        with the aggregate export, so the coordinator always receives an
        aggregates/rows pair that passes the training consistency check.
        """
        with self._rows_lock:
            return [
                (matrix.copy(), labels.copy()) for matrix, labels in self._rows
            ]

    def replace_rows(self, blocks) -> int:
        """Swap the whole training buffer for ``blocks`` of prepared rows.

        The coordinator side of cluster row sync: ``blocks`` is a
        sequence of ``(matrix, labels)`` pairs (the shape
        :meth:`prepare_rows` produces), typically one worker's buffer
        after another in worker order.  Replacing — never appending —
        makes a re-synced buffer idempotent, mirroring
        :meth:`~repro.service.AggregationService.replace_partial`.
        Everything is validated before the swap; callers hold
        :attr:`sync_lock` around the replace and the aggregate updates
        it mirrors.  Returns the rows now buffered.
        """
        d = len(self.service.attributes)
        checked = []
        total = 0
        for block in blocks:
            try:
                matrix, labels = block
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"row blocks must be (matrix, labels) pairs: {exc}"
                ) from exc
            matrix = np.asarray(matrix, dtype=float)
            labels = check_label_column(labels, n_classes=self.service.classes)
            if matrix.ndim != 2 or matrix.shape != (labels.size, d):
                raise ValidationError(
                    f"row block matrix must have shape ({labels.size}, {d}) "
                    f"to match its labels, got {matrix.shape}"
                )
            if labels.size == 0:
                continue
            checked.append((matrix, labels.astype(np.int64, copy=False)))
            total += int(labels.size)
        with self._rows_lock:
            self._rows = checked
        return total

    def ingest(self, batch, classes, *, shard: int | None = None) -> int:
        """Absorb labeled rows into the shards *and* the training buffer.

        The convenience path for library users (the HTTP front end
        splits the two halves to keep request bodies all-or-nothing).
        Returns the records added to the shards.
        """
        rows = self.prepare_rows(batch, classes)
        with self.sync_lock:
            added = self.service.ingest(batch, shard=shard, classes=classes)
            self.absorb_rows(rows)
        return added

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def model(self, strategy: str | None = None):
        """The last :class:`TrainedModel` (of ``strategy``, or any), or None."""
        with self._models_lock:
            if strategy is None:
                strategy = self._latest
            return self._models.get(strategy)

    def train(self, strategy: str = "byclass") -> TrainedModel:
        """Grow a decision tree from the service's aggregates and buffer.

        Reconstructions come from the class-conditional shard partials
        (O(bins) per attribute x class, never re-reading the stream);
        record correction and tree growth run on the buffered randomized
        rows.  The result is bit-identical to the offline
        :class:`~repro.tree.pipeline.PrivacyPreservingClassifier` on the
        same data (see the module docstring).
        """
        if strategy not in TRAINING_STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {TRAINING_STRATEGIES}, "
                f"got {strategy!r}"
            )
        names = self.service.attributes
        start = time.perf_counter()
        # The buffer snapshot, the consistency check, and the aggregate
        # reads happen under the sync lock so a concurrent labeled
        # ingest cannot interleave between them; tree growth below only
        # touches the (already copied) buffered rows and runs unlocked.
        with self.sync_lock:
            with self._rows_lock:
                blocks = list(self._rows)
            if not blocks:
                raise ValidationError(
                    "no labeled records buffered: ingest labeled rows "
                    "before train()"
                )
            w_matrix = np.vstack([matrix for matrix, _ in blocks])
            labels = np.concatenate(
                [block_labels for _, block_labels in blocks]
            )
            # one shard merge per attribute (minus the pre-existing
            # baseline), shared by the consistency check and the
            # reconstructions below
            matrices = {
                name: self.service.merged_by_class(name) - self._baseline[name]
                for name in names
            }
            self._check_consistency(labels, matrices)
        # everything below reads only private copies (w_matrix, labels,
        # matrices), so corrections and tree growth run unlocked and
        # never stall the labeled ingest path
        if strategy == "global":
            intervals = self._correct_global(w_matrix, names, matrices)
        else:  # byclass and local both root at the ByClass correction
            intervals = self._correct_byclass(w_matrix, labels, names, matrices)

        partitions = [self.service.spec(name).x_partition for name in names]
        n = labels.size
        max_depth = 8 if self.max_depth == "auto" else self.max_depth
        min_records_split = (
            max(10, round(0.01 * n))
            if self.min_records_split == "auto"
            else self.min_records_split
        )
        tree = DecisionTreeClassifier(
            partitions,
            criterion=self.criterion,
            max_depth=max_depth,
            min_records_split=min_records_split,
            min_gain=self.min_gain,
            attribute_names=list(names),
        )
        if strategy == "local":
            tree.fit_intervals(
                intervals,
                labels,
                raw_values=w_matrix,
                node_transformer=self._local_transformer(names, partitions),
            )
        else:
            tree.fit_intervals(intervals, labels)
        elapsed = time.perf_counter() - start

        model = TrainedModel(
            strategy=strategy,
            tree=tree,
            n_train=int(n),
            attributes=tuple(names),
            classes=self.service.classes,
            fit_seconds=elapsed,
        )
        with self._models_lock:
            self._models[strategy] = model
            self._latest = strategy
        return model

    # ------------------------------------------------------------------
    def _check_consistency(self, labels: np.ndarray, matrices: dict) -> None:
        """The (baseline-adjusted) aggregates must match the buffer.

        Cheap (O(classes) sums per attribute over the already-merged
        matrices): catches labeled records that reached the shards
        around the training buffer — e.g. via a direct
        ``service.ingest(..., classes=...)`` — before they silently
        skew the reconstructions away from the buffered rows.
        Aggregates predating this training service (a restored
        snapshot's history) are already subtracted by the caller.
        """
        per_class = np.bincount(labels, minlength=self.service.classes)
        for name, matrix in matrices.items():
            for c in range(self.service.classes):
                aggregated = int(matrix[c + 1].sum())
                if aggregated != int(per_class[c]):
                    raise ValidationError(
                        f"class-conditional aggregates disagree with the "
                        f"training buffer for attribute {name!r}, class "
                        f"{c}: shards hold {aggregated} record(s), the "
                        f"buffer {int(per_class[c])} — labeled records "
                        "must be ingested through the training service"
                    )

    def _reconstruct(self, name: str, count_rows) -> list:
        """Engine sweeps over pre-aggregated noise-grid histograms."""
        spec = self.service.spec(name)
        engine = self.service.engine
        _, kernel = engine.kernel_for(spec.x_partition, spec.randomizer)
        y_counts = np.stack([np.asarray(row, dtype=float) for row in count_rows])
        m = spec.x_partition.n_intervals
        theta0 = np.full((y_counts.shape[0], m), 1.0 / m)
        batch = engine.sweep_batch(y_counts, kernel, theta0)
        return [
            engine.result_from_sweep(batch, row, spec.x_partition, warn=False)
            for row in range(y_counts.shape[0])
        ]

    def _correct_byclass(self, w_matrix, labels, names, matrices) -> np.ndarray:
        """Per-class reconstruction from aggregates + per-record correction."""
        intervals = np.empty(w_matrix.shape, dtype=np.int64)
        class_masks = [(int(c), labels == c) for c in np.unique(labels)]
        for j, name in enumerate(names):
            matrix = matrices[name]
            results = self._reconstruct(
                name, [matrix[c + 1] for c, _ in class_masks]
            )
            for (c, mask), result in zip(class_masks, results):
                intervals[mask, j] = correct_records(
                    w_matrix[mask, j], result.distribution
                ).interval_indices
        return intervals

    def _correct_global(self, w_matrix, names, matrices) -> np.ndarray:
        """One all-labeled-classes reconstruction per attribute + correction."""
        intervals = np.empty(w_matrix.shape, dtype=np.int64)
        for j, name in enumerate(names):
            matrix = matrices[name]
            # the labeled blocks sum (exactly) to the histogram of every
            # buffered row; the unlabeled partition is not training data
            result = self._reconstruct(name, [matrix[1:].sum(axis=0)])[0]
            intervals[:, j] = correct_records(
                w_matrix[:, j], result.distribution
            ).interval_indices
        return intervals

    def _local_transformer(self, names, partitions):
        """The paper's Local per-node refit, on the service's engine.

        Matches :class:`~repro.tree.pipeline.PrivacyPreservingClassifier`
        exactly: attributes already split on along the path keep their
        inherited assignments, classes under ``local_min_records`` are
        skipped, and all of a node's (attribute x class) refits go out as
        one batched engine call (kernels cached across nodes).
        """
        randomizers = [self.service.spec(name).randomizer for name in names]
        engine = self.service.engine

        def transform(raw, node_labels, intervals, used):
            out = intervals.copy()
            class_masks = [
                (c, mask)
                for c in np.unique(node_labels)
                for mask in [node_labels == c]
                if int(mask.sum()) >= self.local_min_records
            ]
            jobs = []
            for j in range(len(names)):
                if j in used:
                    continue
                for _, mask in class_masks:
                    jobs.append((j, mask))
            if not jobs:
                return out
            results = engine.reconstruct_batch(
                [
                    (raw[mask, j], partitions[j], randomizers[j])
                    for j, mask in jobs
                ]
            )
            for (j, mask), result in zip(jobs, results):
                out[mask, j] = correct_records(
                    raw[mask, j], result.distribution
                ).interval_indices
            return out

        return transform

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrainingService(attributes={len(self.service.attributes)}, "
            f"classes={self.service.classes}, buffered={self.n_buffered})"
        )
