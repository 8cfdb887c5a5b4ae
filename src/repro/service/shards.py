"""Mergeable histogram partials for sharded disclosure ingestion.

The reconstruction algorithm never needs raw disclosures — only the
histogram of randomized values on the noise-expanded grid.  Histograms
are *mergeable*: the histogram of a union of batches is the elementwise
sum of the batches' histograms, exactly (counts are integers, and float64
addition of integers is exact far beyond any realistic record count).

That makes server-side aggregation embarrassingly shardable:

* each ingestion worker owns (or is routed to) a :class:`HistogramShard`
  and accumulates its batches in O(batch) work with no cross-worker
  coordination,
* a refresh merges the shard partials in O(shards x bins) — independent
  of how many records have ever been seen — and hands the merged counts
  to the reconstruction engine.

The hot path is built for memory bandwidth, not Python speed:

* every attribute's noise-expanded grid occupies one contiguous stripe
  of a single flat counts buffer (:class:`ColumnLayout`), so a batch
  touching any subset of attributes bins **all** of them in one fused
  ``np.bincount`` over offset indices (``offset + locate(values)``, the
  same flat-offset trick the tree's split search uses),
* :meth:`HistogramShard.ingest_prepared` accepts those pre-located
  indices (:class:`PreparedBatch`, built once per batch outside any
  lock), and
* each shard holds **one** flat counts buffer, one record-counter
  matrix and one lock: the ``np.bincount`` runs before the lock is
  taken, so a writer holds it only for the O(bins) add, and reads
  (:meth:`HistogramShard.partial`) copy under the same lock in O(bins)
  however many threads have written,
* labeled and unlabeled records bin into the same histogram; the record
  counters have one row per class label (plus row 0 for unlabeled
  records), so a shard reports how many records of each class it
  absorbed without holding a histogram per class.

:class:`ShardSet` is the fixed-size collection of shards over one
attribute schema, with round-robin routing and the O(bins) merge.  The
same shard core and shard set hold the mining tier's pattern counts
(:mod:`repro.service.support`), which differ only in their layout.  The
control plane (engine, warm-started estimates, persistence) lives in
:class:`repro.service.AggregationService`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.partition import Partition
from repro.core.randomizers import AdditiveRandomizer
from repro.exceptions import ValidationError
from repro.utils.validation import check_1d_array, check_label_column

#: the column dtypes the quantized wire path ships bin indices in
_QUANTIZED_DTYPES = (np.dtype("<i1"), np.dtype("<i2"))


def _quantized_column(values):
    """Return ``values`` when it is a quantized column, else ``None``.

    Quantized columns — the wire v5 carriers — are int8/int16 ndarrays
    of *pre-located bin indices*; every other input (lists, float
    arrays, wider integer arrays) stays on the locate-by-value path.
    """
    if isinstance(values, np.ndarray) and values.dtype in _QUANTIZED_DTYPES:
        return values
    return None


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute the aggregation service collects disclosures for.

    Attributes
    ----------
    name:
        Unique attribute name; the routing key of every ingested batch.
    x_partition:
        Grid over the original domain on which estimates are expressed.
    randomizer:
        The (public) additive noise process providers disclose through.

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import AttributeSpec
    >>> spec = AttributeSpec("age", Partition.uniform(20, 80, 12),
    ...                      UniformRandomizer(half_width=15.0))
    >>> spec.name, spec.x_partition.n_intervals
    ('age', 12)
    """

    name: str
    x_partition: Partition
    randomizer: AdditiveRandomizer

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("attribute name must be a non-empty string")
        if not isinstance(self.x_partition, Partition):
            raise ValidationError(
                f"x_partition must be a Partition, got "
                f"{type(self.x_partition).__name__}"
            )
        if not isinstance(self.randomizer, AdditiveRandomizer):
            raise ValidationError(
                "randomizer must be an AdditiveRandomizer (the service "
                f"aggregates additive disclosures), got "
                f"{type(self.randomizer).__name__}"
            )


class ColumnLayout:
    """Flat-offset layout of a schema's noise-expanded grids.

    Attribute ``j``'s bins occupy ``[offsets[j], offsets[j] + m_j)`` of
    one flat counts vector of ``total_bins`` entries, so locating a
    value and adding the attribute's offset yields a *global* bin index
    — and one ``np.bincount`` over those fused indices bins every
    attribute of a batch in a single vectorized pass.

    With ``n_classes >= 1`` batches may carry a class column.  Labeled
    records bin exactly like unlabeled ones; ``n_classes`` only checks
    the labels and shapes the record counters a prepared batch carries:
    ``(n_classes + 1, attributes)``, row 0 for unlabeled records and
    row ``c + 1`` for class ``c``.

    Shared by every shard of a :class:`ShardSet` (the layout is
    immutable schema geometry, not state).

    Examples
    --------
    >>> from repro.core import Partition
    >>> from repro.service.shards import ColumnLayout
    >>> layout = ColumnLayout({"a": Partition.uniform(0, 1, 4),
    ...                        "b": Partition.uniform(0, 1, 6)})
    >>> layout.total_bins, layout.offset_of("b")
    (10, 4)
    >>> layout.prepare({"b": [0.05, 0.95]}).flat.tolist()
    [4, 9]
    >>> labeled = ColumnLayout({"a": Partition.uniform(0, 1, 4)}, n_classes=2)
    >>> prepared = labeled.prepare({"a": [0.1, 0.9]}, classes=[0, 1])
    >>> prepared.flat.tolist(), prepared.seen.tolist()  # counters: row per class
    ([0, 3], [[0], [1], [1]])
    """

    __slots__ = (
        "_partitions", "_names", "_offsets", "_index", "n_classes", "total_bins",
    )

    def __init__(self, y_partitions, *, n_classes: int = 0) -> None:
        if not y_partitions:
            raise ValidationError("a layout needs at least one attribute")
        if not isinstance(n_classes, int) or n_classes < 0:
            raise ValidationError(
                f"n_classes must be a non-negative integer, got {n_classes!r}"
            )
        self._partitions = dict(y_partitions)
        self._names = tuple(self._partitions)
        self._index = {name: k for k, name in enumerate(self._names)}
        self._offsets = {}
        total = 0
        for name, partition in self._partitions.items():
            self._offsets[name] = total
            total += partition.n_intervals
        self.n_classes = int(n_classes)
        self.total_bins = total

    @property
    def names(self) -> tuple:
        """Attribute names, in schema order."""
        return self._names

    def partition(self, name: str) -> Partition:
        """The noise-expanded grid of attribute ``name``."""
        self.require(name)
        return self._partitions[name]

    def offset_of(self, name: str) -> int:
        """First flat bin of attribute ``name``."""
        self.require(name)
        return self._offsets[name]

    def index_of(self, name: str) -> int:
        """Schema position of attribute ``name`` (for per-attribute counters)."""
        self.require(name)
        return self._index[name]

    def slice_of(self, name: str) -> slice:
        """``name``'s bin range within the flat vector."""
        self.require(name)
        offset = self._offsets[name]
        return slice(offset, offset + self._partitions[name].n_intervals)

    def require(self, name: str) -> None:
        """Raise :class:`ValidationError` unless ``name`` is in the schema."""
        if name not in self._partitions:
            raise ValidationError(
                f"unknown attribute {name!r}; schema holds {list(self._names)}"
            )

    def compatible_with(self, other: "ColumnLayout") -> bool:
        """Same attributes, grids, and class count (merge/ingest compatibility)."""
        if self is other:
            return True
        return (
            isinstance(other, ColumnLayout)
            and self._names == other._names
            and self.n_classes == other.n_classes
            and all(
                np.array_equal(
                    self._partitions[n].edges, other._partitions[n].edges
                )
                for n in self._names
            )
        )

    def check_classes(self, classes) -> np.ndarray:
        """Validate a class column: 1-D integer labels in ``[0, n_classes)``."""
        if self.n_classes == 0:
            raise ValidationError(
                "this layout has no class labels; build it with "
                "n_classes >= 1 to ingest labeled records"
            )
        return check_label_column(classes, n_classes=self.n_classes)

    def prepare(self, batch, classes=None) -> "PreparedBatch":
        """Locate a ``{attribute: values}`` batch into fused flat indices.

        The pure, lock-free half of ingestion: values are validated,
        bucketed on their attribute's grid, and offset into the flat bin
        space.  Quantized columns (int8/int16 ndarrays of pre-located
        bin indices, the wire v5 payload) skip the ``locate`` entirely —
        each index is range-checked against the attribute's grid and
        offset directly, so compressed clients cost the server no
        ``searchsorted``.  ``classes`` (one integer label per record,
        shared by every column of the batch) leaves the indices alone
        and moves the batch's record counts from the unlabeled counter
        row to one row per class.  The returned :class:`PreparedBatch`
        can be handed to any shard built on this layout.
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        labels = None if classes is None else self.check_classes(classes)
        by_class = (
            None if labels is None
            else np.bincount(labels, minlength=self.n_classes)
        )
        located = []
        seen = np.zeros((self.n_classes + 1, len(self._names)), dtype=np.int64)
        total = 0
        for name, values in batch.items():
            partition = self._partitions.get(name)
            if partition is None:
                raise ValidationError(
                    f"unknown attribute {name!r}; schema holds "
                    f"{list(self._names)}"
                )
            indices = _quantized_column(values)
            if indices is None:
                arr = check_1d_array(values, f"batch[{name!r}]", allow_empty=True)
            elif indices.ndim != 1:
                raise ValidationError(
                    f"batch[{name!r}] must be 1-dimensional, got shape "
                    f"{indices.shape}"
                )
            else:
                arr = indices
            if labels is not None and arr.size != labels.size:
                raise ValidationError(
                    f"batch[{name!r}] has {arr.size} value(s) but the class "
                    f"column has {labels.size}; labeled batches need one "
                    "class label per record"
                )
            if arr.size == 0:
                continue
            if indices is None:
                fused = partition.locate(arr) + self._offsets[name]
            else:
                low, high = int(indices.min()), int(indices.max())
                if low < 0 or high >= partition.n_intervals:
                    raise ValidationError(
                        f"batch[{name!r}] quantized bin indices must lie in "
                        f"[0, {partition.n_intervals}), got [{low}, {high}]"
                    )
                fused = indices.astype(np.intp) + self._offsets[name]
            located.append(fused)
            if by_class is None:
                seen[0, self._index[name]] = arr.size
            else:
                seen[1:, self._index[name]] = by_class
            total += arr.size
        if not located:
            flat = np.empty(0, dtype=np.intp)
        elif len(located) == 1:
            # single-attribute batches skip the concatenation entirely
            flat = located[0]
        else:
            flat = np.concatenate(located)
        return PreparedBatch(self, flat, seen, total)

    def quantize(self, batch) -> dict:
        """Locate a value batch into narrow per-attribute bin-index columns.

        The client half of the quantized wire path: each column is
        bucketed on its attribute's noise-expanded grid — exactly what
        :meth:`prepare` would do server-side — and returned at the
        narrowest width the grid permits (int8 for grids of at most 128
        intervals, int16 up to 32768; finer grids are rejected).  The
        width is a pure function of the schema, so every client of one
        service quantizes identically.  Feeding the result to
        ``encode_quantized`` → :meth:`prepare` yields bit-identical
        fused indices — and therefore bit-identical estimates — to
        shipping the float values themselves.

        Examples
        --------
        >>> from repro.core import Partition
        >>> from repro.service.shards import ColumnLayout
        >>> layout = ColumnLayout({"a": Partition.uniform(0, 1, 4)})
        >>> columns = layout.quantize({"a": [0.05, 0.95]})
        >>> columns["a"].tolist(), columns["a"].dtype.name
        ([0, 3], 'int8')
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        quantized = {}
        for name, values in batch.items():
            partition = self._partitions.get(name)
            if partition is None:
                raise ValidationError(
                    f"unknown attribute {name!r}; schema holds "
                    f"{list(self._names)}"
                )
            arr = check_1d_array(values, f"batch[{name!r}]", allow_empty=True)
            n_intervals = partition.n_intervals
            if n_intervals <= 0x80:
                dtype = _QUANTIZED_DTYPES[0]
            elif n_intervals <= 0x8000:
                dtype = _QUANTIZED_DTYPES[1]
            else:
                raise ValidationError(
                    f"attribute {name!r} has {n_intervals} intervals; "
                    "quantized columns cap grids at 32768 (int16 indices)"
                )
            quantized[name] = partition.locate(arr).astype(dtype)
        return quantized


class PreparedBatch:
    """A batch located into flat cell indices, ready to accumulate.

    Produced by :meth:`ColumnLayout.prepare` (fused bin indices) or
    :meth:`~repro.service.support.PatternLayout.prepare` (basket pattern
    codes), or by the ``prepare`` methods of the shards, shard sets and
    services built on them; consumed by ``ingest_prepared``.  Splitting
    ingestion this way keeps the O(batch) locate work outside every lock
    and lets one prepared batch be binned with a single ``np.bincount``.

    Examples
    --------
    >>> from repro.core import Partition
    >>> from repro.service.shards import ColumnLayout
    >>> layout = ColumnLayout({"x": Partition.uniform(0, 1, 4)})
    >>> prepared = layout.prepare({"x": [0.1, 0.9]})
    >>> prepared.total, prepared.flat.tolist()
    (2, [0, 3])
    """

    __slots__ = ("layout", "flat", "seen", "total")

    def __init__(self, layout, flat, seen, total) -> None:
        self.layout = layout
        self.flat = flat
        self.seen = seen
        self.total = int(total)


class _Shard:
    """One shard: a float64 counts buffer, int64 record counters, one lock.

    The core under :class:`HistogramShard` and
    :class:`~repro.service.SupportShard`.  Locating a batch and its
    ``np.bincount`` run outside the lock, so the lock covers only the
    O(bins) add itself (:meth:`_add`), and every read copies under the
    same lock, so it never sees half a batch.  ``counters`` shapes the
    record counters: one row per class (unlabeled first) by one column
    per attribute, or one counter for all transactions.
    """

    def __init__(self, layout, counters: int | tuple[int, int]) -> None:
        self._layout = layout
        self._counts = np.zeros(layout.total_bins)
        self._seen = np.zeros(counters, dtype=np.int64)
        self._lock = threading.Lock()

    @property
    def layout(self):
        """The layout this shard accumulates on (shared by its shard set)."""
        return self._layout

    def _add(self, counts, seen, cells=slice(None)) -> None:
        """Add ``counts`` into ``cells`` and ``seen`` into the counters."""
        with self._lock:
            self._counts[cells] += counts
            self._seen += seen

    def _read(self) -> tuple:
        """Copies of the counts buffer and the counters, in one locked read."""
        with self._lock:
            return self._counts.copy(), self._seen.copy()

    def _mismatch(self, layout) -> str:
        """The error for a batch prepared on an incompatible ``layout``."""
        return "prepared batch was built on a different schema/grid layout"

    def ingest_prepared(self, prepared: PreparedBatch) -> int:
        """Absorb a :class:`PreparedBatch`; return records added.

        The hot half of ingestion: one fused ``np.bincount`` bins the
        whole batch outside the lock, then one locked add folds it into
        the shard, keeping each batch atomic with respect to readers.
        """
        if not isinstance(prepared, PreparedBatch):
            raise ValidationError(
                "ingest_prepared() takes a PreparedBatch (from prepare()); "
                f"got {type(prepared).__name__}"
            )
        if not self._layout.compatible_with(prepared.layout):
            raise ValidationError(self._mismatch(prepared.layout))
        if prepared.total == 0:
            return 0
        binned = np.bincount(prepared.flat, minlength=self._layout.total_bins)
        self._add(binned, prepared.seen)
        return prepared.total

    def clear(self) -> None:
        """Zero all counts and record counters."""
        with self._lock:
            self._counts[:] = 0.0
            self._seen[:] = 0


class HistogramShard(_Shard):
    """One worker's running histogram partials, one per attribute.

    ``ingest`` buckets a batch of randomized values into the attribute's
    noise-expanded histogram — O(batch) work.  Bucketing happens outside
    any lock (it is pure); the accumulate is one add into the shard's
    single flat buffer under the shard lock, so concurrent writers into
    the *same* shard hold it only for an O(bins) vector add, and reads
    copy under the same lock (bit-exact — integer counts in float64 sum
    exactly in any order).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service.shards import HistogramShard
    >>> part = Partition.uniform(0, 1, 4)
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> y_part = part.expanded(noise.support_half_width())
    >>> shard = HistogramShard({"x": y_part})
    >>> shard.ingest({"x": [0.1, 0.4, 0.9]})
    3
    >>> shard.n_seen("x")
    3
    """

    def __init__(
        self, y_partitions, *, layout: ColumnLayout | None = None, n_classes: int = 0
    ) -> None:
        if layout is None:
            if not y_partitions:
                raise ValidationError("a shard needs at least one attribute")
            layout = ColumnLayout(y_partitions, n_classes=n_classes)
        super().__init__(layout, (layout.n_classes + 1, len(layout.names)))

    @property
    def attributes(self) -> tuple:
        """Attribute names this shard accumulates, in schema order."""
        return self._layout.names

    def prepare(self, batch, classes=None) -> PreparedBatch:
        """Locate a batch into fused flat indices (see :class:`ColumnLayout`)."""
        return self._layout.prepare(batch, classes)

    def ingest(self, batch, *, classes=None) -> int:
        """Absorb ``{attribute: randomized values}``; return records added.

        ``classes`` (one integer label per record) counts the records
        per class; without it they count as unlabeled.
        """
        return self.ingest_prepared(self._layout.prepare(batch, classes))

    def n_seen(self, name: str) -> int:
        """Records absorbed so far for ``name``."""
        k = self._layout.index_of(name)
        with self._lock:
            return int(self._seen[:, k].sum())

    def partial(self, name: str) -> tuple:
        """``(counts copy, n_seen)`` of ``name``, in one locked read."""
        sl, k = self._layout.slice_of(name), self._layout.index_of(name)
        with self._lock:
            return self._counts[sl].copy(), int(self._seen[:, k].sum())

    def absorb_counts(self, name: str, counts, n_seen_by_class) -> None:
        """Add pre-bucketed counts for one attribute (snapshot restore).

        ``n_seen_by_class`` holds the records behind ``counts`` per
        counter row: unlabeled first, then one per class.
        """
        sl = self._layout.slice_of(name)
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (sl.stop - sl.start,):
            raise ValidationError(
                f"counts for {name!r} must have {sl.stop - sl.start} bins, "
                f"got {counts.size}"
            )
        seen = np.zeros_like(self._seen)
        seen[:, self._layout.index_of(name)] = n_seen_by_class
        self._add(counts, seen, sl)

    def replace_with(self, partials: dict) -> int:
        """Clear this shard, then absorb one worker's merged partials.

        ``partials`` maps attribute name to a ``(1, bins)`` count matrix
        (:meth:`~repro.service.AggregationService.export_partial`), or
        to ``(n_classes + 1, bins)`` rows, unlabeled then one per class,
        as workers that kept a histogram per class send them; rows are
        summed.  Partials carry no class split, so the records count as
        unlabeled.  This is the cluster coordinator's sync primitive: a
        worker ships its *cumulative* merged counts and replacing the
        worker's dedicated shard makes every re-push idempotent, so a
        retried sync can never double-count.  Attributes absent from
        ``partials`` end up empty (the worker has seen none of them).
        Everything is validated before the clear, so a malformed mapping
        changes nothing; callers needing replace-vs-read atomicity
        serialize through the owning service's estimate lock.  Returns
        the record count now held.
        """
        if not isinstance(partials, dict):
            raise ValidationError("partials must map attribute -> (1, bins) counts")
        flat = np.zeros(self._layout.total_bins)
        seen = np.zeros_like(self._seen)
        n_rows = self._layout.n_classes + 1
        for name, counts in partials.items():
            sl = self._layout.slice_of(name)
            shapes = ((1, sl.stop - sl.start), (n_rows, sl.stop - sl.start))
            matrix = np.asarray(counts, dtype=float)
            if matrix.shape not in shapes:
                raise ValidationError(
                    f"partials[{name!r}] must have shape {shapes[0]} or "
                    f"{shapes[1]}, got {matrix.shape}"
                )
            flat[sl] = matrix.sum(axis=0)
            seen[0, self._layout.index_of(name)] = int(flat[sl].sum())
        self.clear()
        self._add(flat, seen)
        return int(seen.sum())

    def merge_from(self, other: "HistogramShard") -> "HistogramShard":
        """Fold another shard's partials into this one (same schema).

        ``other``'s counts and record totals are copied in one locked
        read, so a concurrent ingest lands in both or in neither.
        """
        if other._layout.names != self._layout.names:
            raise ValidationError("cannot merge shards with different schemas")
        if not other._layout.compatible_with(self._layout):
            raise ValidationError("cannot merge shards bucketed on different grids")
        self._add(*other._read())
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        total = int(self._read()[1].sum())
        return (
            f"HistogramShard(attributes={len(self._layout.names)}, "
            f"records={total})"
        )


class _ShardSet:
    """A fixed number of shards over one layout, routed round-robin.

    The routing, shard lookup and write half shared by :class:`ShardSet`
    and :class:`~repro.service.SupportShardSet`; ``make_shard(layout)``
    builds each shard on the shared layout.
    """

    def __init__(self, layout, n_shards: int, make_shard) -> None:
        if isinstance(n_shards, bool) or not isinstance(n_shards, (int, np.integer)):
            raise ValidationError(
                f"n_shards must be an integer, got {type(n_shards).__name__}"
            )
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        self._layout = layout
        self._shards = tuple(make_shard(layout) for _ in range(int(n_shards)))
        self._route = 0
        self._route_lock = threading.Lock()

    @property
    def layout(self):
        """The layout shared by every shard."""
        return self._layout

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard(self, index: int):
        """The ``index``-th shard (for one-worker-per-shard deployments)."""
        if not 0 <= index < len(self._shards):
            raise ValidationError(
                f"shard index {index} out of range [0, {len(self._shards)})"
            )
        return self._shards[index]

    def __iter__(self):
        return iter(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def ingest_prepared(
        self, prepared: PreparedBatch, *, shard: int | None = None
    ) -> int:
        """Route a :class:`PreparedBatch` to a shard and accumulate it."""
        if shard is None:
            with self._route_lock:
                shard = self._route
                self._route = (self._route + 1) % len(self._shards)
        return self.shard(shard).ingest_prepared(prepared)

    def clear(self) -> None:
        """Zero every shard."""
        for shard in self._shards:
            shard.clear()


class ShardSet(_ShardSet):
    """A fixed number of :class:`HistogramShard` over one schema.

    Workers either address a shard explicitly (``shard=i`` — the
    one-worker-per-shard deployment) or let the set route round-robin;
    either way a writer holds a shard's lock only for the O(bins) add
    of an already-binned batch (see :class:`HistogramShard`).
    ``merged`` sums the per-shard partials in O(shards x bins): because
    histogram counts are exact integers in float64, the merged counts
    are bit-identical to bucketing the whole stream into a single
    histogram, at any shard count, thread count, and batch interleaving.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service.shards import ShardSet
    >>> part = Partition.uniform(0, 1, 4)
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> y_part = part.expanded(noise.support_half_width())
    >>> shards = ShardSet({"x": y_part}, n_shards=2)
    >>> shards.ingest({"x": [0.1, 0.2]}, shard=0)
    2
    >>> shards.ingest({"x": [0.8]}, shard=1)
    1
    >>> counts, seen = shards.merged("x")
    >>> seen, float(counts.sum())
    (3, 3.0)
    """

    def __init__(
        self, y_partitions, n_shards: int = 1, *, n_classes: int = 0
    ) -> None:
        super().__init__(
            ColumnLayout(y_partitions, n_classes=n_classes),
            n_shards,
            lambda layout: HistogramShard(None, layout=layout),
        )

    @property
    def n_classes(self) -> int:
        """Class labels the layout partitions by (0 = class-unaware)."""
        return self._layout.n_classes

    @property
    def attributes(self) -> tuple:
        """Attribute names, in schema order."""
        return self._layout.names

    def prepare(self, batch, classes=None) -> PreparedBatch:
        """Locate a batch into fused flat indices, outside any lock."""
        return self._layout.prepare(batch, classes)

    def ingest(self, batch, *, shard: int | None = None, classes=None) -> int:
        """Route a batch to a shard (round-robin unless ``shard`` given)."""
        return self.ingest_prepared(
            self._layout.prepare(batch, classes), shard=shard
        )

    def merged(self, name: str) -> tuple:
        """Merged ``(counts, n_seen)`` for one attribute — O(shards x bins)."""
        partials = [shard.partial(name) for shard in self._shards]
        return sum(p[0] for p in partials), sum(p[1] for p in partials)

    def merge(self) -> tuple:
        """Merged ``(counts, seen)`` over every shard: one locked read each.

        ``counts`` is the flat counts buffer (see :class:`ColumnLayout`);
        ``seen`` is the ``(n_classes + 1, attributes)`` record-counter
        matrix, row 0 unlabeled and row ``c + 1`` class ``c``.  Each
        shard's counts and counters come from the same read, so every
        attribute's counts sum to its counters.
        """
        reads = [shard._read() for shard in self._shards]
        return sum(r[0] for r in reads), sum(r[1] for r in reads)

    def n_seen(self, name: str | None = None):
        """Records absorbed for one attribute, or ``{name: n}`` for all.

        One attribute sums the shards' integer counters directly; all of
        them take one :meth:`merge`, a single locked read per shard,
        which every ingest reply and health check pays.
        """
        if name is not None:
            self._layout.require(name)
            return sum(shard.n_seen(name) for shard in self._shards)
        by_attribute = self.merge()[1].sum(axis=0).tolist()
        return dict(zip(self._layout.names, by_attribute))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSet(n_shards={len(self._shards)}, "
            f"attributes={len(self._layout.names)})"
        )
