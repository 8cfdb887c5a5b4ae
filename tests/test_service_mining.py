"""Unit tests for the service-side mining tier.

Covers the two modules behind ``POST /mine``:

* :mod:`repro.service.support` — :class:`SupportShardSet`, the sharded
  joint bit-pattern counters, and
  :func:`marginal_pattern_counts`, the exact marginalization that turns
  the full table into any itemset's observed pattern counts,
* :mod:`repro.service.mining` — :class:`MiningService` (level-wise MASK
  Apriori over the service-held counts), :func:`mining_from_spec`, and
  the ``mined_rules`` snapshot round-trip through :mod:`repro.serialize`.

The randomized differential sweep against the offline pipeline lives in
``tests/test_properties.py`` (``test_differential_mining_parity_fuzz``);
these are the deterministic, known-answer complements.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import serialize
from repro.exceptions import SerializationError, ValidationError
from repro.mining import (
    MaskMiner,
    RandomizedResponse,
    association_rules,
    generate_baskets,
)
from repro.service import (
    MinedRules,
    MiningService,
    SupportShardSet,
    mining_from_spec,
)
from repro.service.support import MAX_TRACKED_ITEMS, marginal_pattern_counts


def _canonical(rule):
    return (sorted(rule.antecedent), sorted(rule.consequent))


@pytest.fixture(scope="module")
def disclosed():
    clean = generate_baskets(3_000, 8, seed=81)
    return RandomizedResponse(keep_prob=0.9).randomize(clean, seed=82)


class TestSupportShard:
    """One shard's pattern counts, read through a one-shard set."""

    def test_pattern_counts_known_answer(self):
        # rows encode MSB-first: [1,1] -> 3, [1,0] -> 2, [0,0] -> 0
        shards = SupportShardSet(2)
        shards.ingest(np.array([[1, 1], [1, 0], [0, 0], [1, 1]], dtype=bool))
        assert shards.merged_patterns().tolist() == [1.0, 0.0, 1.0, 2.0]
        assert shards.merged_patterns().tolist() == [1.0, 0.0, 1.0, 2.0]
        assert shards.n_seen == 4

    def test_accumulates_across_batches(self, rng):
        shards = SupportShardSet(5)
        reference = SupportShardSet(5)
        batches = [rng.random((n, 5)) < 0.5 for n in (7, 0, 13, 1)]
        for batch in batches:
            shards.ingest(batch)
        reference.ingest(np.vstack(batches))
        assert np.array_equal(shards.merged_patterns(), reference.merged_patterns())
        assert shards.n_seen == 21

    def test_prepared_path_matches_direct(self, rng):
        direct, prepared = SupportShardSet(4), SupportShardSet(4)
        batch = rng.random((50, 4)) < 0.3
        direct.ingest(batch)
        prepared.ingest_prepared(prepared.prepare(batch))
        assert np.array_equal(direct.merged_patterns(), prepared.merged_patterns())

    def test_merge_rejects_mismatched_universe(self):
        """Baskets packed over 4 items never land in a 3-item set."""
        shards = SupportShardSet(3)
        foreign = SupportShardSet(4).prepare(np.ones((1, 4), dtype=bool))
        with pytest.raises(ValidationError):
            shards.ingest_prepared(foreign)
        assert shards.n_seen == 0

    def test_merge_racing_writers_copies_counts_and_total_together(self):
        """Four writers share one shard buffer: no update is lost, and a
        merge racing them copies counts and transaction total in one
        read, so the merged counts always sum to the merged total."""
        source = SupportShardSet(3)
        batch = np.ones((16, 3), dtype=bool)

        def writer():
            for _ in range(2_000):
                source.ingest(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                writers = [pool.submit(writer) for _ in range(4)]
                while not all(w.done() for w in writers):
                    counts, seen = source.merge()
                    assert counts.sum() == seen[0]
                for w in writers:
                    w.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert source.n_seen == 4 * 2_000 * 16
        assert source.merged_patterns()[-1] == 4 * 2_000 * 16

    def test_clear(self, rng):
        shards = SupportShardSet(3)
        shards.ingest(rng.random((10, 3)) < 0.5)
        shards.clear()
        assert shards.n_seen == 0
        assert shards.merged_patterns().sum() == 0.0

    def test_rejects_bad_matrices(self):
        shards = SupportShardSet(3)
        with pytest.raises(ValidationError):
            shards.ingest(np.zeros((2, 4), dtype=bool))  # wrong width
        with pytest.raises(ValidationError):
            shards.ingest(np.zeros(3, dtype=bool))  # 1-D
        with pytest.raises(ValidationError):
            shards.ingest(np.zeros((2, 3)))  # float, not boolean

    def test_rejects_untrackable_universes(self):
        with pytest.raises(ValidationError):
            SupportShardSet(0)
        with pytest.raises(ValidationError):
            SupportShardSet(MAX_TRACKED_ITEMS + 1)
        SupportShardSet(MAX_TRACKED_ITEMS)  # the boundary itself is fine


class TestMarginalPatternCounts:
    def test_matches_direct_tally(self, rng):
        matrix = rng.random((200, 6)) < 0.4
        shards = SupportShardSet(6)
        shards.ingest(matrix)
        full = shards.merged_patterns()
        miner = MaskMiner(RandomizedResponse(0.9), max_size=6)
        for itemset in ([0], [5], [1, 3], [0, 2, 4], list(range(6))):
            expected = miner._pattern_counts(matrix, itemset)
            got = marginal_pattern_counts(full, 6, itemset)
            assert np.array_equal(got, expected), itemset

    def test_marginal_sums_preserve_total(self, rng):
        matrix = rng.random((100, 4)) < 0.5
        shards = SupportShardSet(4)
        shards.ingest(matrix)
        marginal = marginal_pattern_counts(shards.merged_patterns(), 4, [1, 2])
        assert marginal.sum() == 100.0

    def test_rejects_bad_itemsets(self):
        full = np.zeros(8)
        with pytest.raises(ValidationError):
            marginal_pattern_counts(full, 3, [])
        with pytest.raises(ValidationError):
            marginal_pattern_counts(full, 3, [3])
        with pytest.raises(ValidationError):
            marginal_pattern_counts(full, 3, [-1])


class TestSupportShardSet:
    def test_round_robin_distribution(self, rng):
        shards = SupportShardSet(3, n_shards=4)
        for _ in range(6):
            shards.ingest(rng.random((10, 3)) < 0.5)
        assert [shards.read_shard(i)[1][0] for i in range(4)] == [20, 20, 10, 10]
        assert shards.n_seen == 60

    def test_shard_pinning(self, rng):
        shards = SupportShardSet(3, n_shards=4)
        shards.ingest(rng.random((10, 3)) < 0.5, shard=2)
        assert [shards.read_shard(i)[1][0] for i in range(4)] == [0, 0, 10, 0]
        with pytest.raises(ValidationError):
            shards.ingest(np.zeros((1, 3), dtype=bool), shard=4)
        with pytest.raises(ValidationError):
            shards.ingest(np.zeros((1, 3), dtype=bool), shard=-1)

    def test_merged_patterns_bit_identical_across_shard_counts(self, rng):
        batches = [rng.random((n, 4)) < 0.4 for n in (17, 3, 25, 9)]
        tables = []
        for n_shards in (1, 2, 5):
            shards = SupportShardSet(4, n_shards=n_shards)
            for batch in batches:
                shards.ingest(batch)
            tables.append(shards.merged_patterns())
        assert np.array_equal(tables[0], tables[1])
        assert np.array_equal(tables[0], tables[2])

    def test_pattern_counts_for_matches_offline_tally(self, rng):
        matrix = rng.random((300, 5)) < 0.35
        shards = SupportShardSet(5, n_shards=3)
        for chunk in np.array_split(matrix, 4):
            shards.ingest(chunk)
        miner = MaskMiner(RandomizedResponse(0.9), max_size=5)
        for itemset in ({0}, {1, 4}, {0, 2, 3}):
            expected = miner._pattern_counts(matrix, sorted(itemset))
            got = marginal_pattern_counts(shards.merged_patterns(), 5, itemset)
            assert np.array_equal(got, expected)

    def test_clear_resets_every_shard(self, rng):
        shards = SupportShardSet(3, n_shards=2)
        shards.ingest(rng.random((10, 3)) < 0.5)
        shards.clear()
        assert shards.n_seen == 0
        assert shards.merged_patterns().sum() == 0.0

    def test_rejects_bad_shard_count(self):
        for bad in (0, 1.5, "2", True):
            with pytest.raises(ValidationError):
                SupportShardSet(3, n_shards=bad)


class TestMiningService:
    def _loaded(self, disclosed, n_shards=3):
        service = MiningService(
            RandomizedResponse(keep_prob=0.9), 8, n_shards=n_shards
        )
        for chunk in np.array_split(disclosed, 5):
            service.ingest(chunk)
        return service

    def test_estimate_support_bit_identical_to_offline(self, disclosed):
        service = self._loaded(disclosed)
        miner = MaskMiner(RandomizedResponse(keep_prob=0.9))
        for itemset in ({0}, {0, 1}, {2, 3, 4}):
            assert service.estimate_support(itemset) == miner.estimate_support(
                disclosed, itemset
            ), itemset

    def test_frequent_itemsets_bit_identical_to_offline(self, disclosed):
        service = self._loaded(disclosed)
        offline = MaskMiner(RandomizedResponse(keep_prob=0.9))
        assert service.frequent_itemsets(0.15) == offline.frequent_itemsets(
            disclosed, 0.15
        )

    def test_mine_matches_offline_rules_and_caches_latest(self, disclosed):
        service = self._loaded(disclosed)
        assert service.latest() is None
        result = service.mine(0.15, 0.4)
        assert service.latest() is result
        offline_sets = MaskMiner(
            RandomizedResponse(keep_prob=0.9)
        ).frequent_itemsets(disclosed, 0.15)
        assert result.itemsets == offline_sets
        assert sorted(result.rules, key=_canonical) == sorted(
            association_rules(offline_sets, 0.4), key=_canonical
        )
        assert result.n_baskets == disclosed.shape[0]
        assert frozenset({0, 1}) in result.itemsets  # planted pattern found

    def test_mine_before_ingest_rejected(self):
        service = MiningService(RandomizedResponse(0.9), 4)
        with pytest.raises(ValidationError, match="no baskets"):
            service.mine(0.2, 0.5)
        with pytest.raises(ValidationError, match="no baskets"):
            service.estimate_support({0})
        with pytest.raises(ValidationError, match="no baskets"):
            service.frequent_itemsets(0.2)

    def test_thresholds_validated(self, disclosed):
        service = self._loaded(disclosed)
        for support, confidence in ((0.0, 0.5), (1.5, 0.5), (0.2, 0.0)):
            with pytest.raises(ValidationError):
                service.mine(support, confidence)

    def test_empty_itemset_and_max_size(self, disclosed):
        service = self._loaded(disclosed)
        assert service.estimate_support(set()) == 1.0
        with pytest.raises(ValidationError, match="max_size"):
            service.estimate_support({0, 1, 2, 3})

    def test_prepared_ingest_matches_direct(self, disclosed):
        direct = self._loaded(disclosed, n_shards=2)
        prepared = MiningService(RandomizedResponse(0.9), 8, n_shards=2)
        for chunk in np.array_split(disclosed, 5):
            prepared.ingest_prepared(prepared.prepare(chunk))
        assert np.array_equal(
            direct.shards.merged_patterns(), prepared.shards.merged_patterns()
        )


class TestMiningFromSpec:
    def test_builds_service(self):
        service = mining_from_spec(
            {"items": 8, "keep_prob": 0.85, "shards": 2, "max_size": 4}
        )
        assert service.n_items == 8
        assert service.response.keep_prob == 0.85
        assert len(service.shards) == 2
        assert service.max_size == 4

    def test_defaults(self):
        service = mining_from_spec({"items": 5, "keep_prob": 0.9})
        assert len(service.shards) == 1
        assert service.max_size == 3

    def test_rejects_bad_sections(self):
        with pytest.raises(ValidationError, match="must be a dict"):
            mining_from_spec(["items"])
        with pytest.raises(ValidationError, match="items"):
            mining_from_spec({"keep_prob": 0.9})
        with pytest.raises(ValidationError, match="keep_prob"):
            mining_from_spec({"items": 5})
        with pytest.raises(ValidationError):
            mining_from_spec({"items": 5, "keep_prob": 0.5})
        for bad in (0, 1.5, "x", True):
            with pytest.raises(ValidationError):
                mining_from_spec({"items": 5, "keep_prob": 0.9, "shards": bad})

    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"items": 8.9}, "'items'"),
            ({"items": True}, "'items'"),
            ({"items": "8"}, "'items'"),
            ({"max_size": 2.5}, "'max_size'"),
            ({"keep_prob": "0.9"}, "'keep_prob'"),
        ],
        ids=["items_float", "items_bool", "items_string", "max_size_float",
             "keep_prob_string"],
    )
    def test_numbers_are_checked_not_coerced(self, edit, field):
        """A section field that is not a JSON number of the right kind is
        refused with its name, never truncated or parsed."""
        with pytest.raises(ValidationError, match=field):
            mining_from_spec({"items": 8, "keep_prob": 0.9, **edit})


class TestMinedRulesSnapshot:
    def _mined(self, disclosed) -> MinedRules:
        service = MiningService(RandomizedResponse(keep_prob=0.9), 8)
        service.ingest(disclosed)
        return service.mine(0.15, 0.4)

    def test_round_trip_is_lossless(self, disclosed):
        result = self._mined(disclosed)
        back = serialize.from_jsonable(
            json.loads(json.dumps(serialize.to_jsonable(result)))
        )
        assert isinstance(back, MinedRules)
        assert back.itemsets == result.itemsets  # exact floats
        assert back.rules == result.rules
        assert (back.min_support, back.min_confidence) == (0.15, 0.4)
        assert back.n_baskets == result.n_baskets
        assert back.keep_prob == 0.9

    def test_save_writes_snapshot_file(self, disclosed, tmp_path):
        result = self._mined(disclosed)
        path = tmp_path / "rules.json"
        result.save(path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "mined_rules"
        back = serialize.from_jsonable(payload)
        assert back.itemsets == result.itemsets

    def test_rejects_itemset_outside_universe(self, disclosed):
        payload = serialize.to_jsonable(self._mined(disclosed))
        payload["n_items"] = 2  # now every itemset over items >= 2 is invalid
        with pytest.raises(SerializationError, match="universe"):
            serialize.from_jsonable(payload)
