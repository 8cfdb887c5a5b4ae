"""Sharded pattern-count accumulators for association mining.

The mining analogue of :mod:`repro.service.shards`: where a
:class:`~repro.service.ShardSet` accumulates per-interval counts of
randomized *numeric* disclosures, a :class:`SupportShardSet` accumulates
the joint bit-pattern counts of randomized *baskets*.  Each ingested
transaction is folded into one counter — the count of its full
``n_items``-bit row pattern (MSB-first, item 0 in the top bit) — so
each shard holds ``2^n_items`` counters however long the stream runs.

That full pattern table is the exact sufficient statistic for MASK
support estimation over **any** itemset: the ``2^k`` observed pattern
counts of an itemset are marginal sums of the full table, and because
pattern counts are integers held in float64, marginalizing merged
shards is bit-identical to tallying the whole stream in one pass
(integer sums in float64 are exact in any order).  Level-wise Apriori
can therefore discover candidates *after* ingestion — the service never
needs to know the itemsets in advance — and estimates agree bit for bit
with the offline :class:`~repro.mining.MaskMiner` at any shard count.

:class:`SupportShardSet` is the histogram shard set's own routing and
shard record over a different layout: :class:`PatternLayout` packs rows
into pattern codes outside every lock, one locked add folds a binned
batch into a shard's single counts buffer, and readers copy under the
same lock.  Merges are associative and commutative — shards are just
partial sums.

The ``2^n_items`` table is why :data:`MAX_TRACKED_ITEMS` caps the item
universe at 16 (65536 float64 counters = 512 KiB per shard); wider
catalogues need the offline miner or an item-bucketing front end.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.service.shards import PreparedBatch, _ShardSet

__all__ = [
    "MAX_TRACKED_ITEMS",
    "PatternLayout",
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
    float64 are exact in any order.  The
    :class:`~repro.service.MiningService`'s level-wise miner
    marginalizes one consistent read of
    :meth:`SupportShardSet.merged_patterns` through it.

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

    The mining twin of :class:`~repro.service.shards.Domain`:
    :meth:`prepare` packs each transaction into one MSB-first
    ``n_items``-bit code (item 0 in the top bit), so the shard set's
    fused ``np.bincount`` tallies a batch into ``2^n_items`` cells,
    exactly as it bins a histogram batch into its flat grid.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.support import PatternLayout, SupportShardSet
    >>> layout = PatternLayout(2)
    >>> prepared = layout.prepare(np.array([[True, True], [False, True]]))
    >>> prepared.flat.tolist()  # MSB-first row patterns: 0b11, 0b01
    [3, 1]
    >>> SupportShardSet(2).ingest_prepared(prepared)
    2
    """

    __slots__ = ("n_items", "total_bins")

    def __init__(self, n_items: int) -> None:
        self.n_items = _check_n_items(n_items)
        self.total_bins = 1 << self.n_items

    def compatible_with(self, other: object) -> bool:
        """Same item universe (ingest compatibility)."""
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


class SupportShardSet(_ShardSet):
    """A fixed number of pattern-count shards over one item universe.

    Writers either address a shard explicitly (``shard=i``) or let the
    set route round-robin, exactly as :class:`~repro.service.ShardSet`
    routes histogram batches.  :meth:`merged_patterns` sums the
    per-shard tables in O(shards x 2^n_items) — **bit-identical**, at
    any shard count and batch interleaving, to tallying the whole stream
    at once, because integer counts in float64 sum exactly in any order
    — and :func:`marginal_pattern_counts` turns it into any itemset's
    ``2^k`` observed counts.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.support import SupportShardSet
    >>> shards = SupportShardSet(2, n_shards=2)
    >>> shards.ingest(np.array([[True, True], [True, False]]), shard=0)
    2
    >>> shards.ingest(np.array([[True, True]]), shard=1)
    1
    >>> shards.merged_patterns().tolist()  # patterns 00, 01, 10, 11
    [0.0, 0.0, 1.0, 2.0]
    >>> shards.n_seen
    3
    """

    def __init__(self, n_items: int, n_shards: int = 1) -> None:
        super().__init__(PatternLayout(n_items), n_shards, 1)

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
        """Transactions absorbed across all shards (counters only)."""
        return int(self._counters()[0])

    def merged_patterns(self) -> np.ndarray:
        """Merged full-pattern counts over every shard (a copy)."""
        return self.merge()[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SupportShardSet(n_items={self.n_items}, "
            f"n_shards={len(self._shards)}, records={self.n_seen})"
        )
