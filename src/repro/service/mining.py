"""Association-rule mining over the service-held pattern counts.

The mining twin of :mod:`repro.service.training`: where the training
tier grows the paper's decision trees from buffered randomized rows,
:class:`MiningService` runs level-wise Apriori over the
pattern counts a :class:`~repro.service.SupportShardSet` accumulated
from MASK-randomized baskets.  Every float operation is shared with the
offline path — :func:`~repro.mining.support_from_pattern_counts` for
the channel inversion, :func:`~repro.mining.candidate_itemsets` for the
lattice walk, :func:`~repro.mining.association_rules` for the rule
derivation — and the marginalized pattern counts are bit-identical to
tallying the basket matrix directly, so a service-side mine produces
the **bit-identical** itemset supports and rule set the offline
:class:`~repro.mining.MaskMiner` would on the same randomized baskets,
at any shard count (``bench_e24`` asserts this against the ``bench_e12``
pipeline).

Randomization stays client-side (``ppdm ingest --baskets --mask-p P``):
the server only ever holds pattern counts of *disclosed* baskets, and
the keep probability it inverts with is deployment configuration, not
data.  Mining reads one consistent snapshot of the merged table, so a
mine racing concurrent ingestion sees some prefix of the stream, never
a torn batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.mining.apriori import association_rules, candidate_itemsets
from repro.mining.mask import RandomizedResponse, support_from_pattern_counts
from repro.service.service import _spec_number
from repro.service.shards import PreparedBatch
from repro.service.support import SupportShardSet, marginal_pattern_counts
from repro.utils.validation import check_fraction

__all__ = ["MinedRules", "MiningService", "mining_from_spec"]


@dataclass(frozen=True)
class MinedRules:
    """One mining pass's rule set, plus provenance.

    Attributes
    ----------
    min_support / min_confidence:
        The thresholds the pass ran with.
    n_baskets:
        Randomized baskets the pattern counts covered.
    n_items / keep_prob / max_size:
        The mining deployment's configuration at mine time.
    itemsets:
        Frequent itemsets: ``{frozenset: estimated support}``.
    rules:
        The derived :class:`~repro.mining.AssociationRule` tuple, in
        :func:`~repro.mining.association_rules` order.
    mine_seconds:
        Wall-clock time of the pass (marginalize + invert + derive).

    Examples
    --------
    >>> from repro.service import MinedRules
    >>> result = MinedRules(0.2, 0.5, 100, 4, 0.9, 3, {}, (), 0.001)
    >>> result.n_baskets, result.rules
    (100, ())
    """

    min_support: float
    min_confidence: float
    n_baskets: int
    n_items: int
    keep_prob: float
    max_size: int
    itemsets: dict
    rules: tuple
    mine_seconds: float

    def save(self, path: object) -> None:
        """Persist as a ``mined_rules`` snapshot (:mod:`repro.serialize`)."""
        from repro import serialize

        serialize.save(self, path)


class MiningService:
    """Level-wise MASK Apriori over sharded, service-held pattern counts.

    Parameters
    ----------
    response:
        The :class:`~repro.mining.RandomizedResponse` clients randomize
        with — its keep probability is what the estimator inverts, so
        it is deployment configuration shared by both sides of the wire.
    n_items:
        Size of the item universe (capped by
        :data:`~repro.service.support.MAX_TRACKED_ITEMS`).
    n_shards:
        Ingestion shards of the backing :class:`SupportShardSet`.
    max_size:
        Largest itemset size to mine (channel inversion costs
        ``O(4^k)`` per itemset — keep it small, as the offline miner
        does).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mining import MaskMiner, RandomizedResponse, generate_baskets
    >>> from repro.service import MiningService
    >>> rr = RandomizedResponse(keep_prob=0.9)
    >>> disclosed = rr.randomize(generate_baskets(2000, 6, seed=0), seed=1)
    >>> mining = MiningService(rr, 6, n_shards=2)
    >>> mining.ingest(disclosed)
    2000
    >>> result = mining.mine(0.2, 0.5)
    >>> offline = MaskMiner(rr).frequent_itemsets(disclosed, 0.2)
    >>> result.itemsets == offline  # bit-identical to the offline miner
    True
    """

    def __init__(
        self,
        response: RandomizedResponse,
        n_items: int,
        *,
        n_shards: int = 1,
        max_size: int = 3,
    ) -> None:
        if not isinstance(response, RandomizedResponse):
            raise ValidationError(
                "response must be a RandomizedResponse, got "
                f"{type(response).__name__}"
            )
        if max_size < 1:
            raise ValidationError(f"max_size must be >= 1, got {max_size}")
        self.response = response
        self.max_size = int(max_size)
        self._shards = SupportShardSet(n_items, n_shards=n_shards)
        self._latest: MinedRules | None = None
        self._results_lock = threading.Lock()

    @property
    def shards(self) -> SupportShardSet:
        """The backing pattern-count shard set."""
        return self._shards

    @property
    def n_items(self) -> int:
        """Size of the item universe."""
        return self._shards.n_items

    @property
    def n_seen(self) -> int:
        """Randomized baskets absorbed so far."""
        return self._shards.n_seen

    # ------------------------------------------------------------------
    # Ingestion (randomized baskets, already MASK-disclosed client-side)
    # ------------------------------------------------------------------
    def prepare(self, baskets: object) -> PreparedBatch:
        """Pack a randomized basket matrix into codes, outside any lock."""
        return self._shards.prepare(baskets)

    def ingest(self, baskets: object, *, shard: int | None = None) -> int:
        """Absorb a randomized basket matrix; return transactions added."""
        return self._shards.ingest(baskets, shard=shard)

    def ingest_prepared(
        self, prepared: PreparedBatch, *, shard: int | None = None
    ) -> int:
        """Absorb a :class:`PreparedBatch` of baskets; return transactions added."""
        return self._shards.ingest_prepared(prepared, shard=shard)

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple:
        """One consistent ``(full pattern table, n_baskets)`` snapshot.

        ``n_baskets`` is read off the table itself (pattern counts are
        exact integers, their sum is the transaction count), so the pair
        can never disagree however ingestion races the read.
        """
        full = self._shards.merged_patterns()
        return full, int(full.sum())

    def _estimate(self, full: np.ndarray, n: int, itemset) -> float:
        observed = marginal_pattern_counts(full, self.n_items, itemset)
        return support_from_pattern_counts(self.response, observed, n)

    def estimate_support(self, itemset) -> float:
        """Channel-corrected support estimate of one itemset.

        Bit-identical to
        :meth:`repro.mining.MaskMiner.estimate_support` on the baskets
        this service has absorbed.
        """
        items = sorted(itemset)
        if not items:
            return 1.0
        if len(items) > self.max_size:
            raise ValidationError(
                f"itemset size {len(items)} exceeds max_size={self.max_size}"
            )
        full, n = self._snapshot()
        if n < 1:
            raise ValidationError("no baskets ingested yet")
        return self._estimate(full, n, items)

    def frequent_itemsets(self, min_support: float) -> dict:
        """Level-wise Apriori over *estimated* supports.

        Mirrors :meth:`repro.mining.MaskMiner.frequent_itemsets` —
        identical lattice walk, identical arithmetic — over the
        service-held counts instead of a basket matrix.
        """
        min_support = check_fraction(min_support, "min_support")
        full, n = self._snapshot()
        if n < 1:
            raise ValidationError("no baskets ingested yet")
        return self._frequent(full, n, min_support)

    def _frequent(self, full: np.ndarray, n: int, min_support: float) -> dict:
        result: dict = {}
        current = {}
        for j in range(self.n_items):
            estimate = self._estimate(full, n, (j,))
            if estimate >= min_support:
                current[frozenset({j})] = estimate
        size = 1
        while current and size <= self.max_size:
            result.update(current)
            size += 1
            if size > self.max_size:
                break
            next_level: dict = {}
            for candidate in candidate_itemsets(set(current), size):
                estimate = self._estimate(full, n, candidate)
                if estimate >= min_support:
                    next_level[candidate] = estimate
            current = next_level
        return result

    def mine(self, min_support: float, min_confidence: float) -> MinedRules:
        """One full pass: frequent itemsets, then association rules.

        The result is cached as :meth:`latest` (what ``GET /rules``
        serves) and returned.  Itemsets, supports, and rule confidences
        are bit-identical to the offline
        ``association_rules(MaskMiner(...).frequent_itemsets(...))``
        pipeline on the same randomized baskets.
        """
        min_support = check_fraction(min_support, "min_support")
        min_confidence = check_fraction(min_confidence, "min_confidence")
        start = time.perf_counter()
        full, n = self._snapshot()
        if n < 1:
            raise ValidationError(
                "no baskets ingested yet; nothing to mine"
            )
        itemsets = self._frequent(full, n, min_support)
        rules = tuple(association_rules(itemsets, min_confidence))
        result = MinedRules(
            min_support=min_support,
            min_confidence=min_confidence,
            n_baskets=n,
            n_items=self.n_items,
            keep_prob=self.response.keep_prob,
            max_size=self.max_size,
            itemsets=itemsets,
            rules=rules,
            mine_seconds=time.perf_counter() - start,
        )
        with self._results_lock:
            self._latest = result
        return result

    def latest(self) -> MinedRules | None:
        """The most recent :meth:`mine` result (``None`` before the first)."""
        with self._results_lock:
            return self._latest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MiningService(n_items={self.n_items}, "
            f"keep_prob={self.response.keep_prob:g}, "
            f"records={self.n_seen})"
        )


def mining_from_spec(section: dict) -> MiningService:
    """Build a :class:`MiningService` from a spec's ``"mining"`` section.

    The section of the ``ppdm serve`` deployment spec that enables the
    mining workload (sibling of ``"attributes"``):

    .. code-block:: python

        {
          "mining": {
            "items": 12,          # item-universe size (required)
            "keep_prob": 0.9,     # clients' MASK keep probability (required)
            "max_size": 3,        # optional, default 3
            "shards": 4,          # optional, default 1
          },
        }

    Examples
    --------
    >>> from repro.service import mining_from_spec
    >>> mining = mining_from_spec({"items": 8, "keep_prob": 0.85, "shards": 2})
    >>> mining.n_items, mining.response.keep_prob, len(mining.shards)
    (8, 0.85, 2)
    """
    if not isinstance(section, dict):
        raise ValidationError("the 'mining' spec section must be a dict")
    where = "mining spec"
    return MiningService(
        RandomizedResponse(float(_spec_number(section, "keep_prob", where))),
        _spec_number(section, "items", where, integer=True),
        n_shards=_spec_number(section, "shards", where, 1, integer=True),
        max_size=_spec_number(section, "max_size", where, 3, integer=True),
    )
