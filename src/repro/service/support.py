"""Sharded pattern-count accumulators for association mining.

The mining analogue of :mod:`repro.service.shards`: where histogram
shards accumulate per-interval counts of randomized *numeric*
disclosures, a :class:`SupportShard` accumulates the joint bit-pattern
counts of randomized *baskets*.  Each ingested transaction is folded
into one counter — the count of its full ``n_items``-bit row pattern
(MSB-first, item 0 in the top bit) — so a shard holds ``2^n_items``
counters however long the stream runs.

That full pattern table is the exact sufficient statistic for MASK
support estimation over **any** itemset: the ``2^k`` observed pattern
counts of an itemset are marginal sums of the full table, and because
pattern counts are integers held in float64, marginalizing merged
shards is bit-identical to tallying the whole stream in one pass
(integer sums in float64 are exact in any order).  Level-wise Apriori
can therefore discover candidates *after* ingestion — the service never
needs to know the itemsets in advance — and estimates agree bit for bit
with the offline :class:`~repro.mining.MaskMiner` at any shard count.

The shards are the histogram shards' own core over a different layout:
:class:`PatternLayout` packs rows into pattern codes outside every lock,
and :class:`SupportShard` / :class:`SupportShardSet` reuse the shard
core and round-robin shard set of :mod:`repro.service.shards`, so one
locked add folds a binned batch into the shard's single counts buffer
and readers copy under the same lock.  Merges are associative and
commutative — shards are just partial sums.

The ``2^n_items`` table is why :data:`MAX_TRACKED_ITEMS` caps the item
universe at 16 (65536 float64 counters = 512 KiB per shard); wider
catalogues need the offline miner or an item-bucketing front end.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.service.shards import PreparedBatch, _Shard, _ShardSet

__all__ = [
    "MAX_TRACKED_ITEMS",
    "PatternLayout",
    "SupportShard",
    "SupportShardSet",
    "marginal_pattern_counts",
]

#: widest item universe a pattern-complete shard will track (2^16 counters)
MAX_TRACKED_ITEMS = 16


def _check_n_items(n_items: int) -> int:
    if not isinstance(n_items, (int, np.integer)) or isinstance(n_items, bool):
        raise ValidationError(
            f"n_items must be an integer, got {type(n_items).__name__}"
        )
    if not 1 <= n_items <= MAX_TRACKED_ITEMS:
        raise ValidationError(
            f"a support shard tracks 1..{MAX_TRACKED_ITEMS} items "
            f"(2^n_items counters), got {n_items}"
        )
    return int(n_items)


def marginal_pattern_counts(full, n_items: int, itemset) -> np.ndarray:
    """Marginalize a full ``2^n_items`` pattern table onto one itemset.

    Returns the itemset's ``2^k`` observed pattern counts, MSB-first
    (items sorted ascending, first item in the top bit) — exactly the
    tally :meth:`repro.mining.MaskMiner.estimate_support` computes from
    a basket matrix, because marginal sums of integer counts held in
    float64 are exact in any order.  Shared by
    :meth:`SupportShardSet.pattern_counts_for` and the
    :class:`~repro.service.MiningService`'s level-wise miner (which
    marginalizes one consistent snapshot of the merged table).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.support import marginal_pattern_counts
    >>> full = np.array([1.0, 0.0, 2.0, 3.0])  # patterns 00, 01, 10, 11
    >>> marginal_pattern_counts(full, 2, {0}).tolist()
    [1.0, 5.0]
    """
    n_items = _check_n_items(n_items)
    counts = np.asarray(full, dtype=float)
    if counts.shape != (1 << n_items,):
        raise ValidationError(
            f"full pattern table for {n_items} item(s) must have "
            f"{1 << n_items} entries, got shape {counts.shape}"
        )
    items = sorted(itemset)
    k = len(items)
    if k < 1:
        raise ValidationError("pattern counts need a non-empty itemset")
    if len(set(items)) != k:
        raise ValidationError(f"itemset {items} repeats an item")
    for item in items:
        if not isinstance(item, (int, np.integer)) or isinstance(item, bool):
            raise ValidationError(f"item ids must be integers, got {item!r}")
        if not 0 <= item < n_items:
            raise ValidationError(
                f"itemset {items} out of range for {n_items} items"
            )
    patterns = np.arange(counts.size, dtype=np.int64)
    projected = np.zeros_like(patterns)
    for bit, item in enumerate(items):
        projected |= ((patterns >> (n_items - 1 - item)) & 1) << (k - 1 - bit)
    return np.bincount(projected, weights=counts, minlength=1 << k)


class PatternLayout:
    """Full-row pattern codes of an ``n_items`` basket universe.

    The mining twin of :class:`~repro.service.shards.ColumnLayout`:
    :meth:`prepare` packs each transaction into one MSB-first
    ``n_items``-bit code (item 0 in the top bit), so the shard core's
    fused ``np.bincount`` tallies a batch into ``2^n_items`` cells,
    exactly as it bins a histogram batch into its flat grid.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.support import PatternLayout, SupportShard
    >>> layout = PatternLayout(2)
    >>> prepared = layout.prepare(np.array([[True, True], [False, True]]))
    >>> prepared.flat.tolist()  # MSB-first row patterns: 0b11, 0b01
    [3, 1]
    >>> SupportShard(2).ingest_prepared(prepared)
    2
    """

    __slots__ = ("n_items", "total_bins")

    def __init__(self, n_items: int) -> None:
        self.n_items = _check_n_items(n_items)
        self.total_bins = 1 << self.n_items

    def compatible_with(self, other: object) -> bool:
        """Same item universe (merge/ingest compatibility)."""
        return isinstance(other, PatternLayout) and other.n_items == self.n_items

    def prepare(self, baskets: object) -> PreparedBatch:
        """Pack a basket batch into pattern codes, outside any lock."""
        matrix = np.asarray(baskets)
        if matrix.ndim != 2:
            raise ValidationError(
                f"baskets must be a 2-D boolean matrix, got shape {matrix.shape}"
            )
        if matrix.dtype != np.bool_:
            raise ValidationError(
                f"baskets must be a boolean matrix, got dtype {matrix.dtype}"
            )
        if matrix.shape[1] != self.n_items:
            raise ValidationError(
                f"baskets have {matrix.shape[1]} item column(s); this shard "
                f"tracks {self.n_items}"
            )
        bits = 1 << np.arange(self.n_items - 1, -1, -1, dtype=np.int64)
        total = matrix.shape[0]
        return PreparedBatch(self, matrix @ bits, np.array([total]), total)


class SupportShard(_Shard):
    """One worker's running pattern counts over randomized baskets.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.support import SupportShard
    >>> shard = SupportShard(2)
    >>> shard.ingest(np.array([[True, True], [True, False], [True, True]]))
    3
    >>> shard.pattern_counts().tolist()  # patterns 00, 01, 10, 11
    [0.0, 0.0, 1.0, 2.0]
    """

    def __init__(self, n_items: int) -> None:
        super().__init__(PatternLayout(n_items), 1)

    @property
    def n_items(self) -> int:
        """Size of the item universe this shard tracks patterns over."""
        return self._layout.n_items

    def _mismatch(self, layout) -> str:
        if not isinstance(layout, PatternLayout):
            return super()._mismatch(layout)
        return (
            f"prepared baskets were packed over {layout.n_items} "
            f"item(s); this shard tracks {self.n_items}"
        )

    def prepare(self, baskets: object) -> PreparedBatch:
        """Pack a basket batch into pattern codes, outside any lock."""
        return self._layout.prepare(baskets)

    def ingest(self, baskets: object) -> int:
        """Absorb a boolean basket matrix; return transactions added."""
        return self.ingest_prepared(self._layout.prepare(baskets))

    @property
    def n_seen(self) -> int:
        """Transactions absorbed so far."""
        with self._lock:
            return int(self._seen[0])

    def pattern_counts(self) -> np.ndarray:
        """The ``2^n_items`` pattern counts (a copy), read under the lock."""
        return self._read()[0]

    def merge_from(self, other: "SupportShard") -> "SupportShard":
        """Fold another shard's pattern counts into this one.

        The merge is a vector sum, so it is associative, commutative,
        and has the fresh shard as identity — shards are partial sums.
        ``other``'s counts and transaction total are copied in one
        locked read, so a concurrent ingest lands in both or in neither.
        """
        if not isinstance(other, SupportShard):
            raise ValidationError(
                f"can only merge SupportShard, got {type(other).__name__}"
            )
        if other.n_items != self.n_items:
            raise ValidationError(
                f"cannot merge shards over different item universes "
                f"({other.n_items} vs {self.n_items})"
            )
        self._add(*other._read())
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SupportShard(n_items={self.n_items}, records={self.n_seen})"


class SupportShardSet(_ShardSet):
    """A fixed number of :class:`SupportShard` over one item universe.

    Writers either address a shard explicitly (``shard=i``) or let the
    set route round-robin, exactly as :class:`~repro.service.ShardSet`
    routes histogram batches.  :meth:`merged_patterns` sums the
    per-shard tables in O(shards x 2^n_items), and
    :meth:`pattern_counts_for` marginalizes the merged table down to one
    itemset's ``2^k`` observed counts — **bit-identical**, at any shard
    count and batch interleaving, to tallying the whole stream at once,
    because integer counts in float64 sum exactly in any order.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.support import SupportShardSet
    >>> shards = SupportShardSet(3, n_shards=2)
    >>> shards.ingest(np.array([[True, True, False]]), shard=0)
    1
    >>> shards.ingest(np.array([[True, False, False]]), shard=1)
    1
    >>> shards.pattern_counts_for((0,)).tolist()  # item 0: never, always
    [0.0, 2.0]
    >>> shards.n_seen
    2
    """

    def __init__(self, n_items: int, n_shards: int = 1) -> None:
        super().__init__(
            PatternLayout(n_items),
            n_shards,
            lambda layout: SupportShard(layout.n_items),
        )

    @property
    def n_items(self) -> int:
        """Size of the shared item universe."""
        return self._layout.n_items

    def prepare(self, baskets: object) -> PreparedBatch:
        """Pack a basket batch into pattern codes, outside any lock."""
        return self._layout.prepare(baskets)

    def ingest(self, baskets: object, *, shard: int | None = None) -> int:
        """Route a basket batch to a shard (round-robin unless pinned)."""
        return self.ingest_prepared(self._layout.prepare(baskets), shard=shard)

    @property
    def n_seen(self) -> int:
        """Transactions absorbed across all shards."""
        return sum(shard.n_seen for shard in self._shards)

    def merged_patterns(self) -> np.ndarray:
        """Merged full-pattern counts over every shard (a copy)."""
        return sum(shard.pattern_counts() for shard in self._shards)

    def pattern_counts_for(self, itemset) -> np.ndarray:
        """An itemset's ``2^k`` observed pattern counts, MSB-first.

        Marginalizes the merged full-pattern table onto ``itemset`` via
        :func:`marginal_pattern_counts` — exactly the tally
        :meth:`repro.mining.MaskMiner.estimate_support` computes from a
        basket matrix, ready for
        :func:`repro.mining.support_from_pattern_counts`.
        """
        return marginal_pattern_counts(
            self.merged_patterns(), self.n_items, itemset
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SupportShardSet(n_items={self.n_items}, "
            f"n_shards={len(self._shards)}, records={self.n_seen})"
        )
