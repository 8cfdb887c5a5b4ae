"""The service schema and mergeable histogram partials.

The reconstruction algorithm never needs raw disclosures — only the
histogram of randomized values on the noise-expanded grid.  Histograms
are *mergeable*: the histogram of a union of batches is the elementwise
sum of the batches' histograms, exactly (counts are integers, and float64
addition of integers is exact far beyond any realistic record count).

A service describes its schema once, as a :class:`Domain`: for each
attribute the :class:`AttributeSpec` (domain grid and public noise), the
noise-expanded grid disclosures bin on, and its place in the flat
counts buffer and the record counters.  The domain is also the one
validation pass of every batch (:meth:`Domain.check`).

That makes server-side aggregation embarrassingly shardable.  A
:class:`ShardSet` holds a fixed number of shards over one domain:

* each ingestion worker is routed to a shard (round-robin, or pinned
  with ``shard=i``) and accumulates its batches in O(batch) work with no
  cross-worker coordination,
* a refresh merges the shards in O(shards x bins) — independent of how
  many records have ever been seen — and hands the merged counts to the
  reconstruction engine.

The hot path is built for memory bandwidth, not Python speed:

* every attribute's noise-expanded grid occupies one contiguous stripe
  of a single flat counts buffer, so a batch touching any subset of
  attributes bins **all** of them in one fused ``np.bincount`` over
  offset indices (``offset + locate(values)``, the same flat-offset
  trick the tree's split search uses),
* :meth:`ShardSet.ingest_prepared` accepts those pre-located indices
  (:class:`PreparedBatch`, built once per batch by
  :meth:`Domain.prepare` outside any lock), and
* each shard is a private record of **one** flat counts buffer, one
  record-counter matrix and one lock, and every access is one locked
  add, copy or write: the ``np.bincount`` runs before the lock is taken,
  so a writer holds it only for the O(bins) add; a read copies in
  O(bins) however many threads have written; and a coordinator's slot
  replace (:meth:`ShardSet.replace_slot`) swaps counts and counters at
  once, so no reader sees the slot empty,
* labeled and unlabeled records bin into the same histogram; the record
  counters have one row per class label (plus row 0 for unlabeled
  records), so a shard reports how many records of each class it
  absorbed without holding a histogram per class.

The same shard record and shard set hold the mining tier's pattern
counts (:class:`~repro.service.SupportShardSet`), which differ only in
their layout.  The control plane (engine, warm-started estimates,
persistence) lives in :class:`repro.service.AggregationService`.
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


class Domain:
    """The schema a service bins disclosures on, checked once per batch.

    Built once per service from its attribute specs
    (:class:`AttributeSpec`, or ``(name, x_partition, randomizer)``
    triples), its class count and its engine's ``coverage``.  For each
    attribute (``names``, in schema order) it holds the spec, the
    noise-expanded grid disclosures bin on
    (``x_partition.expanded(randomizer.support_half_width(coverage))``,
    the kernel cache's own rule), the attribute's stripe of one flat
    counts vector of ``total_bins`` entries, and its column of the
    record counters.  Locating a value and adding its stripe's offset
    yields a *global* bin index, so one ``np.bincount`` over those fused
    indices bins every attribute of a batch in a single vectorized pass.

    With ``classes >= 1`` batches may carry a class column.  Labeled
    records bin exactly like unlabeled ones; ``classes`` only checks the
    labels and shapes the record counters a prepared batch carries:
    ``(classes + 1, attributes)``, row 0 for unlabeled records and row
    ``c + 1`` for class ``c``.  The domain is immutable schema, not
    state: every shard of a :class:`ShardSet` shares it.

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import Domain
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> domain = Domain([("a", Partition.uniform(0, 1, 4), noise),
    ...                  ("b", Partition.uniform(0, 1, 2), noise)], classes=2)
    >>> domain.grid("a").n_intervals, domain.total_bins  # a margin bin per side
    (6, 10)
    >>> prepared = domain.prepare({"b": [0.3, 0.9]}, classes=[0, 1])
    >>> prepared.flat.tolist(), prepared.seen.tolist()  # counters: row per class
    ([7, 8], [[0, 0], [0, 1], [0, 1]])
    """

    __slots__ = ("_attributes", "names", "classes", "total_bins")

    def __init__(
        self, attributes, *, classes: int = 0, coverage: float = 1.0 - 1e-9
    ) -> None:
        if (
            isinstance(classes, bool)
            or not isinstance(classes, (int, np.integer))
            or classes < 0
        ):
            raise ValidationError(
                f"classes must be a non-negative integer, got {classes!r}"
            )
        # name -> (spec, noise-expanded grid, stripe, counter column)
        self._attributes: dict = {}
        stop = 0
        for row, spec in enumerate(attributes):
            if not isinstance(spec, AttributeSpec):
                spec = AttributeSpec(*spec)
            if spec.name in self._attributes:
                raise ValidationError(f"duplicate attribute name {spec.name!r}")
            grid = spec.x_partition.expanded(
                spec.randomizer.support_half_width(coverage)
            )
            stripe = slice(stop, stop + grid.n_intervals)
            self._attributes[spec.name] = (spec, grid, stripe, row)
            stop = stripe.stop
        if not self._attributes:
            raise ValidationError("a domain needs at least one attribute")
        self.names = tuple(self._attributes)
        self.classes = int(classes)
        self.total_bins = stop

    def _attribute(self, name: str) -> tuple:
        try:
            return self._attributes[name]
        except KeyError:
            raise ValidationError(
                f"unknown attribute {name!r}; the schema holds {list(self.names)}"
            ) from None

    def spec(self, name: str) -> AttributeSpec:
        """The :class:`AttributeSpec` of attribute ``name``."""
        return self._attribute(name)[0]

    def grid(self, name: str) -> Partition:
        """The noise-expanded grid attribute ``name``'s disclosures bin on."""
        return self._attribute(name)[1]

    def slice_of(self, name: str) -> slice:
        """``name``'s stripe of bins within the flat vector."""
        return self._attribute(name)[2]

    def index_of(self, name: str) -> int:
        """Schema position of attribute ``name`` (its record-counter column)."""
        return self._attribute(name)[3]

    def compatible_with(self, other: object) -> bool:
        """Same attributes, grids, and class count (ingest compatibility)."""
        if self is other:
            return True
        return (
            isinstance(other, Domain)
            and self.names == other.names
            and self.classes == other.classes
            and all(
                np.array_equal(self.grid(n).edges, other.grid(n).edges)
                for n in self.names
            )
        )

    def check(self, batch, classes=None) -> tuple:
        """Validate a ``{attribute: values}`` batch: ``(columns, labels)``.

        The one validation pass of every batch.  ``columns`` maps each
        attribute of the batch to a 1-D float array of finite values, or
        to its quantized column as sent: an int8/int16 ndarray of
        pre-located bin indices (the wire v5 payload), range-checked
        against the attribute's grid.  ``labels`` is the class column
        (one integer label in ``[0, classes)`` per record, shared by
        every column of the batch) as an integer array, or ``None``.
        Nothing is located; :meth:`prepare` does that.
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        labels = None
        if classes is not None:
            if self.classes == 0:
                raise ValidationError(
                    "this domain has no class labels; build it with "
                    "classes >= 1 to ingest labeled records"
                )
            labels = check_label_column(classes, n_classes=self.classes)
        columns = {}
        for name, values in batch.items():
            grid = self._attribute(name)[1]
            what = f"batch[{name!r}]"
            if isinstance(values, np.ndarray) and values.dtype in _QUANTIZED_DTYPES:
                n_bins = grid.n_intervals
                if values.ndim != 1:
                    raise ValidationError(
                        f"{what} must be 1-dimensional, got shape {values.shape}"
                    )
                low, high = (
                    (int(values.min()), int(values.max())) if values.size
                    else (0, 0)
                )
                if low < 0 or high >= n_bins:
                    raise ValidationError(
                        f"{what} quantized bin indices must lie in "
                        f"[0, {n_bins}), got [{low}, {high}]"
                    )
                column = values
            else:
                column = check_1d_array(values, what, allow_empty=True)
            if labels is not None and column.size != labels.size:
                raise ValidationError(
                    f"{what} has {column.size} value(s) but the class "
                    f"column has {labels.size}; labeled batches need one "
                    "class label per record"
                )
            columns[name] = column
        return columns, labels

    def prepare(self, batch, classes=None) -> "PreparedBatch":
        """:meth:`check` a batch, then locate it into fused flat indices.

        The pure, lock-free half of ingestion: each float column is
        bucketed on its attribute's grid, and each quantized column is
        taken as its bin indices, so compressed clients cost the server
        no ``searchsorted``; both are offset into the flat bin space.  A
        class column leaves the indices alone and moves the batch's
        record counts from the unlabeled counter row to one row per
        class.  The returned :class:`PreparedBatch` keeps the checked
        ``columns`` and ``labels``, and can be handed to any shard set
        built on this domain.
        """
        columns, labels = self.check(batch, classes)
        by_class = (
            None if labels is None
            else np.bincount(labels, minlength=self.classes)
        )
        located = []
        seen = np.zeros((self.classes + 1, len(self.names)), dtype=np.int64)
        total = 0
        for name, column in columns.items():
            if column.size == 0:
                continue
            _, grid, stripe, row = self._attributes[name]
            if column.dtype.kind == "f":
                located.append(grid.locate(column) + stripe.start)
            else:  # quantized bin indices, range-checked by check()
                located.append(column.astype(np.intp) + stripe.start)
            if by_class is None:
                seen[0, row] = column.size
            else:
                seen[1:, row] = by_class
            total += column.size
        if not located:
            flat = np.empty(0, dtype=np.intp)
        elif len(located) == 1:
            # single-attribute batches skip the concatenation entirely
            flat = located[0]
        else:
            flat = np.concatenate(located)
        return PreparedBatch(self, flat, seen, total, columns, labels)

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
        >>> from repro.core import Partition, UniformRandomizer
        >>> from repro.service import Domain
        >>> noise = UniformRandomizer(half_width=0.25)
        >>> domain = Domain([("a", Partition.uniform(0, 1, 4), noise)])
        >>> columns = domain.quantize({"a": [0.05, 0.95]})
        >>> columns["a"].tolist(), columns["a"].dtype.name
        ([1, 4], 'int8')
        """
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        quantized = {}
        for name, values in batch.items():
            grid = self._attribute(name)[1]
            arr = check_1d_array(values, f"batch[{name!r}]", allow_empty=True)
            n_intervals = grid.n_intervals
            if n_intervals <= 0x80:
                dtype = _QUANTIZED_DTYPES[0]
            elif n_intervals <= 0x8000:
                dtype = _QUANTIZED_DTYPES[1]
            else:
                raise ValidationError(
                    f"attribute {name!r} has {n_intervals} intervals; "
                    "quantized columns cap grids at 32768 (int16 indices)"
                )
            quantized[name] = grid.locate(arr).astype(dtype)
        return quantized


class PreparedBatch:
    """A batch located into flat cell indices, ready to accumulate.

    Produced by :meth:`Domain.prepare` (fused bin indices, plus the
    ``columns`` and ``labels`` its :meth:`~Domain.check` returned) or
    :meth:`~repro.service.support.PatternLayout.prepare` (basket pattern
    codes), or by the ``prepare`` methods of the services built on them;
    consumed by ``ingest_prepared``.  Splitting ingestion this way keeps
    the O(batch) locate work outside every lock and lets one prepared
    batch be binned with a single ``np.bincount``.

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import Domain
    >>> domain = Domain([("x", Partition.uniform(0, 1, 4),
    ...                   UniformRandomizer(half_width=0.25))])
    >>> prepared = domain.prepare({"x": [0.1, 0.9]})
    >>> prepared.total, prepared.flat.tolist(), prepared.columns["x"].tolist()
    (2, [1, 4], [0.1, 0.9])
    """

    __slots__ = ("layout", "flat", "seen", "total", "columns", "labels")

    def __init__(
        self, layout, flat, seen, total, columns=None, labels=None
    ) -> None:
        self.layout = layout
        self.flat = flat
        self.seen = seen
        self.total = int(total)
        self.columns = columns
        self.labels = labels


class _Shard:
    """One shard: a float64 counts buffer, int64 record counters, one lock.

    A private record of :class:`ShardSet` and
    :class:`~repro.service.SupportShardSet`, which validate, route and
    bin every batch before it gets here.  Each access is one locked add,
    copy or write, so a reader never sees half a batch, and a replaced
    shard never reads as empty in between.
    """

    __slots__ = ("_counts", "_seen", "_lock")

    def __init__(self, n_cells: int, counters: int | tuple[int, int]) -> None:
        self._counts = np.zeros(n_cells)
        self._seen = np.zeros(counters, dtype=np.int64)
        self._lock = threading.Lock()

    def _add(self, counts, seen) -> None:
        """Add ``counts`` into the buffer and ``seen`` into the counters."""
        with self._lock:
            self._counts += counts
            self._seen += seen

    def _read(self, cells: slice = slice(None)) -> tuple:
        """Copies of the buffer's ``cells`` and of the counters, in one read."""
        with self._lock:
            return self._counts[cells].copy(), self._seen.copy()

    def _counters(self) -> np.ndarray:
        """A copy of the counters alone, in one locked read."""
        with self._lock:
            return self._seen.copy()

    def _write(self, counts, seen) -> None:
        """Overwrite the buffer and the counters, in one locked write."""
        with self._lock:
            self._counts[:] = counts
            self._seen[:] = seen


class _ShardSet:
    """A fixed number of shards over one layout, routed round-robin.

    The half shared by :class:`ShardSet` and
    :class:`~repro.service.SupportShardSet`: routing, the locked add of
    a prepared batch, merged and per-shard reads, and clearing.
    ``counters`` shapes each shard's record counters.
    """

    def __init__(self, layout, n_shards: int, counters: int | tuple[int, int]) -> None:
        if isinstance(n_shards, bool) or not isinstance(n_shards, (int, np.integer)):
            raise ValidationError(
                f"n_shards must be an integer, got {type(n_shards).__name__}"
            )
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        self._layout = layout
        self._shards = tuple(
            _Shard(layout.total_bins, counters) for _ in range(int(n_shards))
        )
        self._route = 0
        self._route_lock = threading.Lock()

    @property
    def layout(self):
        """The layout shared by every shard: a :class:`Domain`, or the
        mining tier's :class:`~repro.service.support.PatternLayout`."""
        return self._layout

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def _shard(self, index: int) -> _Shard:
        if not 0 <= index < len(self._shards):
            raise ValidationError(
                f"shard index {index} out of range [0, {len(self._shards)})"
            )
        return self._shards[index]

    def ingest_prepared(
        self, prepared: PreparedBatch, *, shard: int | None = None
    ) -> int:
        """Absorb a :class:`PreparedBatch` into one shard; return records added.

        The hot half of ingestion: the batch goes to shard ``shard``, or
        round-robin when unpinned; one fused ``np.bincount`` bins it
        outside any lock, and one locked add folds it into the shard, so
        each batch is atomic with respect to readers.
        """
        if not isinstance(prepared, PreparedBatch):
            raise ValidationError(
                "ingest_prepared() takes a PreparedBatch (from prepare()); "
                f"got {type(prepared).__name__}"
            )
        if not self._layout.compatible_with(prepared.layout):
            raise ValidationError(
                "prepared batch was built on a different schema, grid or "
                "item universe"
            )
        if shard is None:
            with self._route_lock:
                shard = self._route
                self._route = (self._route + 1) % len(self._shards)
        target = self._shard(shard)
        if prepared.total == 0:
            return 0
        target._add(
            np.bincount(prepared.flat, minlength=self._layout.total_bins),
            prepared.seen,
        )
        return prepared.total

    def merge(self, cells: slice = slice(None)) -> tuple:
        """Merged ``(counts, seen)`` over every shard: one locked read each.

        ``counts`` is the flat counts buffer, or its ``cells`` (one
        attribute's stripe); ``seen`` is the summed record counters.
        Each shard's counts and counters come from the same read, so
        they always agree.
        """
        counts, seen = self._shards[0]._read(cells)
        for shard in self._shards[1:]:
            more_counts, more_seen = shard._read(cells)
            counts += more_counts
            seen += more_seen
        return counts, seen

    def _counters(self) -> np.ndarray:
        """The record counters summed over shards; copies no counts."""
        seen = self._shards[0]._counters()
        for shard in self._shards[1:]:
            seen += shard._counters()
        return seen

    def read_shard(self, index: int) -> tuple:
        """Copies of shard ``index``'s ``(counts, seen)``, in one locked read."""
        return self._shard(index)._read()

    def clear(self) -> None:
        """Zero every shard's counts and record counters."""
        for shard in self._shards:
            shard._write(0.0, 0)


class ShardSet(_ShardSet):
    """A fixed number of histogram shards over one :class:`Domain`.

    Workers either address a shard explicitly (``shard=i`` — the
    one-worker-per-shard deployment) or let the set route round-robin;
    either way a writer holds a shard's lock only for the O(bins) add
    of an already-binned batch.  ``merged`` sums one attribute's stripe
    of every shard in O(shards x bins): because histogram counts are
    exact integers in float64, the merged counts are bit-identical to
    bucketing the whole stream into a single histogram, at any shard
    count, thread count, and batch interleaving.  Each shard counts its
    records per attribute and per class label: row 0 unlabeled, row
    ``c + 1`` class ``c``.

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service.shards import Domain, ShardSet
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> shards = ShardSet(Domain([("x", Partition.uniform(0, 1, 4), noise)]), 2)
    >>> shards.ingest({"x": [0.1, 0.2]}, shard=0)
    2
    >>> shards.ingest({"x": [0.8]}, shard=1)
    1
    >>> counts, seen = shards.merged("x")
    >>> seen, float(counts.sum())
    (3, 3.0)
    >>> shards.read_shard(1)[1].tolist()  # shard 1's record counters
    [[1]]
    """

    def __init__(self, domain: Domain, n_shards: int = 1) -> None:
        counters = (domain.classes + 1, len(domain.names))
        super().__init__(domain, n_shards, counters)

    def ingest(self, batch, *, shard: int | None = None, classes=None) -> int:
        """Route a batch to a shard (round-robin unless ``shard`` given).

        ``classes`` (one integer label per record) counts the records
        per class; without it they count as unlabeled.
        """
        return self.ingest_prepared(
            self._layout.prepare(batch, classes), shard=shard
        )

    def merged(self, name: str) -> tuple:
        """Merged ``(counts, n_seen)`` for one attribute — O(shards x bins)."""
        k = self._layout.index_of(name)
        counts, seen = self.merge(self._layout.slice_of(name))
        return counts, int(seen[:, k].sum())

    def n_seen(self, name: str | None = None):
        """Records absorbed for one attribute, or ``{name: n}`` for all.

        Reads the record counters only, one locked read per shard, which
        every ingest reply and health check pays.
        """
        seen = self._counters()
        if name is not None:
            return int(seen[:, self._layout.index_of(name)].sum())
        return dict(zip(self._layout.names, seen.sum(axis=0).tolist()))

    def replace_slot(self, index: int, partials: dict) -> int:
        """Replace shard ``index`` with one worker's merged partials.

        ``partials`` maps attribute name to a ``(1, bins)`` count matrix
        (:meth:`~repro.service.AggregationService.export_partial`), or
        to ``(classes + 1, bins)`` rows, unlabeled then one per class,
        as workers that kept a histogram per class send them; rows are
        summed.  Partials carry no class split, so the records count as
        unlabeled.  This is the cluster coordinator's sync primitive: a
        worker ships its *cumulative* merged counts and replacing the
        worker's dedicated shard makes every repeated sync idempotent, so a
        retried sync can never double-count.  Attributes absent from
        ``partials`` end up empty (the worker has seen none of them).
        Everything is validated first, so a malformed mapping changes
        nothing, and the counts and counters are swapped in one locked
        write, so a reader sees the old slot or the new one, never an
        empty slot.  Returns the record count now held.
        """
        target = self._shard(index)
        if not isinstance(partials, dict):
            raise ValidationError("partials must map attribute -> (1, bins) counts")
        domain = self._layout
        flat = np.zeros(domain.total_bins)
        seen = np.zeros((domain.classes + 1, len(domain.names)), dtype=np.int64)
        for name, counts in partials.items():
            sl = domain.slice_of(name)
            shapes = ((1, sl.stop - sl.start), (len(seen), sl.stop - sl.start))
            matrix = np.asarray(counts, dtype=float)
            if matrix.shape not in shapes:
                raise ValidationError(
                    f"partials[{name!r}] must have shape {shapes[0]} or "
                    f"{shapes[1]}, got {matrix.shape}"
                )
            flat[sl] = matrix.sum(axis=0)
            seen[0, domain.index_of(name)] = int(flat[sl].sum())
        target._write(flat, seen)
        return int(seen.sum())

    def absorb_merged(self, counts, seen) -> None:
        """Add ``(counts, seen)``, shaped as :meth:`merge` returns them,
        to shard 0: the snapshot restore's one write."""
        self._shards[0]._add(counts, seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSet(n_shards={len(self._shards)}, "
            f"attributes={len(self._layout.names)})"
        )
