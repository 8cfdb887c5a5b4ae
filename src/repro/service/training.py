"""Decision-tree training over the live aggregation service (paper §4).

The paper's headline result is not the reconstructed histogram but the
classifier trained on it: ByClass/Local reconstruction feeding ID3-style
tree induction recovers near-original accuracy from randomized data.
:class:`TrainingService` closes that loop for the serving tier — the
same server that ingests randomized streams at memory bandwidth can now
*mine* them.

A labeled batch lands twice: in the service's shards (the histograms
every estimate reads, plus per-class record counters for ``/stats``)
and in a **training buffer** of the labeled randomized rows.  It is
validated once, by the service's :class:`~repro.service.shards.Domain`:
:meth:`TrainingService.rows` builds the buffer's rows from the columns
and labels that check returned.  :meth:`train` reads the buffer only.
It hands the rows, the service's grids and randomizers, and the
service's warm, cache-shared
:class:`~repro.core.engine.ReconstructionEngine` to the offline
pipeline's own strategy functions
(:func:`~repro.tree.pipeline.correct_intervals`,
:func:`~repro.tree.pipeline.local_refit`,
:func:`~repro.tree.pipeline.build_tree`).  The buffer only ever holds
*randomized* values; clean data never reaches the server.

Bit-identity contract
---------------------
Given the same labeled randomized rows (in the same order) and default
engine settings, :meth:`TrainingService.train` produces a tree
**bit-identical** — same splits, same thresholds, same leaf counts — to
the offline :class:`~repro.tree.pipeline.PrivacyPreservingClassifier`
fed the same pre-randomized table (the ``experiments/classification.py``
path): both run the same code on the same rows, and the engine's batched
sweeps are bit-identical to solving each problem alone.
``tests/test_training.py``, the training fuzz in
``tests/test_properties.py`` and ``bench_e22_train_over_service`` pin
this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.tree.pipeline import build_tree, correct_intervals, local_refit
from repro.tree.tree import DecisionTreeClassifier

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
        (``classes >= 1``).  Its grids and randomizers define the
        reconstructions; its engine (and kernel cache) runs the sweeps.
    criterion / max_depth / min_records_split / min_gain / local_min_records:
        Tree-growth settings, with exactly the
        :class:`~repro.tree.pipeline.PrivacyPreservingClassifier`
        defaults and ``"auto"`` resolutions, so a service-trained tree is
        bit-identical to the offline pipeline on the same data.

    Labeled rows enter through :meth:`ingest` (or the HTTP front end's
    labeled wire frames): the batch lands in the service's shards *and*
    in the training buffer, and :meth:`train` reads the buffer only.
    Training rows must carry every attribute — trees route records on
    full rows.

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

    def rows(self, columns: dict, labels) -> tuple:
        """Full training rows from one checked labeled batch (pure).

        ``columns`` and ``labels`` are what the service's
        :meth:`~repro.service.shards.Domain.check` returned (a
        :class:`~repro.service.shards.PreparedBatch` keeps them too), so
        nothing is validated twice.  Rows need every service attribute,
        as float64 randomized values: quantized bin indices are not
        disclosures, and buffering them would corrupt every leaf's
        reconstruction.  Returns a fresh ``(matrix, labels)`` pair
        (wire-decoded zero-copy views are materialized here — the
        request body's buffer is not retained).
        """
        if labels is None:
            raise ValidationError("training rows need a class column")
        names = self.service.attributes
        missing = [name for name in names if name not in columns]
        if missing:
            raise ValidationError(
                f"training rows need every attribute; missing {missing} "
                f"(the service collects {list(names)})"
            )
        for name in names:
            if columns[name].dtype != np.float64:
                raise ValidationError(
                    "labeled quantized columns cannot feed training; "
                    "send raw float64 columns (wire v1/v2, or v5 dtype "
                    "code 0) when training is enabled"
                )
        matrix = (
            np.column_stack([columns[name] for name in names])
            if labels.size
            else np.empty((0, len(names)))
        )
        return matrix, labels.astype(np.int64, copy=True)

    def absorb_rows(self, rows: tuple) -> int:
        """Append rows built by :meth:`rows`; return row count."""
        matrix, labels = rows
        if labels.size == 0:
            return 0
        with self._rows_lock:
            self._rows.append((matrix, labels))
        return int(labels.size)

    def export_rows(self) -> list:
        """Copies of the buffered ``(matrix, labels)`` blocks, in order.

        The worker side of cluster row sync: shipped as labeled record
        frames after the partial frame, so the coordinator trains on the
        union of every worker's buffer.
        """
        with self._rows_lock:
            return [
                (matrix.copy(), labels.copy()) for matrix, labels in self._rows
            ]

    def replace_rows(self, blocks) -> int:
        """Swap the whole training buffer for ``blocks`` built by :meth:`rows`.

        The coordinator side of cluster row sync: ``blocks`` is a
        sequence of ``(matrix, labels)`` pairs, typically one worker's
        buffer after another in worker order, each already checked when
        :meth:`rows` built it.  Replacing — never appending — makes a
        re-synced buffer idempotent, mirroring
        :meth:`~repro.service.AggregationService.replace_partial`.
        Returns the rows now buffered.
        """
        checked = [block for block in blocks if block[1].size]
        with self._rows_lock:
            self._rows = checked
        return sum(int(labels.size) for _, labels in checked)

    def ingest(self, batch, classes, *, shard: int | None = None) -> int:
        """Absorb labeled rows into the shards *and* the training buffer.

        The convenience path for library users (the HTTP front end
        splits the two halves to keep request bodies all-or-nothing).
        The batch is checked and located once.  Returns the records
        added to the shards.
        """
        prepared = self.service.prepare(batch, classes)
        rows = self.rows(prepared.columns, prepared.labels)
        added = self.service.ingest_prepared(prepared, shard=shard)
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
        """Grow a decision tree from the buffered labeled rows.

        Reconstruction, record correction and tree growth all read one
        copy of the buffer, through the offline pipeline's strategy
        functions on the service's engine.  The result is bit-identical
        to the offline :class:`~repro.tree.pipeline.PrivacyPreservingClassifier`
        on the same rows (see the module docstring), and a reconstruction
        that stops on the iteration cap emits the same
        :class:`~repro.exceptions.ConvergenceWarning`.
        """
        if strategy not in TRAINING_STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {TRAINING_STRATEGIES}, "
                f"got {strategy!r}"
            )
        names = self.service.attributes
        start = time.perf_counter()
        with self._rows_lock:
            blocks = list(self._rows)
        if not blocks:
            raise ValidationError(
                "no labeled records buffered: ingest labeled rows before train()"
            )
        w_matrix = np.vstack([matrix for matrix, _ in blocks])
        labels = np.concatenate([block_labels for _, block_labels in blocks])
        specs = [self.service.spec(name) for name in names]
        partitions = [spec.x_partition for spec in specs]
        randomizers = [spec.randomizer for spec in specs]
        engine = self.service.engine
        intervals, _ = correct_intervals(
            strategy, w_matrix, labels, partitions, randomizers, engine
        )
        tree = build_tree(
            partitions,
            names,
            labels.size,
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_records_split=self.min_records_split,
            min_gain=self.min_gain,
        )
        if strategy == "local":
            tree.fit_intervals(
                intervals,
                labels,
                raw_values=w_matrix,
                node_transformer=local_refit(
                    partitions, randomizers, engine, self.local_min_records
                ),
            )
        else:
            tree.fit_intervals(intervals, labels)
        elapsed = time.perf_counter() - start

        model = TrainedModel(
            strategy=strategy,
            tree=tree,
            n_train=int(labels.size),
            attributes=tuple(names),
            classes=self.service.classes,
            fit_seconds=elapsed,
        )
        with self._models_lock:
            self._models[strategy] = model
            self._latest = strategy
        return model

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrainingService(attributes={len(self.service.attributes)}, "
            f"classes={self.service.classes}, buffered={self.n_buffered})"
        )
