"""Tests for the PrivacyPreservingClassifier training strategies."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.reconstruction import BayesReconstructor
from repro.datasets import quest
from repro.exceptions import NotFittedError, ValidationError
from repro.tree.pipeline import STRATEGIES, PrivacyPreservingClassifier

warnings.filterwarnings("ignore", category=UserWarning, module="repro")


@pytest.fixture(scope="module")
def fn1_data():
    train = quest.generate(3_000, function=1, seed=21)
    test = quest.generate(1_000, function=1, seed=22)
    return train, test


class TestConfiguration:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValidationError):
            PrivacyPreservingClassifier("quantum")

    def test_rejects_bad_privacy(self):
        with pytest.raises(ValidationError):
            PrivacyPreservingClassifier(privacy=0.0)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValidationError):
            PrivacyPreservingClassifier(n_intervals=1)

    def test_strategies_registry(self):
        assert set(STRATEGIES) == {
            "original",
            "randomized",
            "global",
            "byclass",
            "local",
            "valueclass",
        }

    def test_not_fitted(self, fn1_data):
        clf = PrivacyPreservingClassifier("original")
        with pytest.raises(NotFittedError):
            clf.predict(fn1_data[1])


class _LoopedReconstructor:
    """The pre-engine behaviour: one problem at a time, nothing shared.

    No ``reconstruct_batch`` attribute, and a fresh reconstructor per call
    so no kernel or chi-squared threshold survives between problems.
    """

    def reconstruct(self, values, partition, randomizer):
        return BayesReconstructor().reconstruct(values, partition, randomizer)


class TestBatchedEquivalence:
    """The engine-batched fits are bit-identical to the looped path."""

    @pytest.mark.parametrize("strategy", ["global", "byclass", "local"])
    @pytest.mark.parametrize("noise", ["uniform", "gaussian"])
    def test_fit_matches_looped_path(self, fn1_data, strategy, noise):
        train, test = fn1_data
        base = PrivacyPreservingClassifier(strategy, noise=noise, seed=5)
        base.fit(train)
        randomized, randomizers = base.randomized_table_, base.randomizers_

        looped = PrivacyPreservingClassifier(
            strategy, noise=noise, seed=5, reconstructor=_LoopedReconstructor()
        ).fit(train, randomized_table=randomized, randomizers=randomizers)
        batched = PrivacyPreservingClassifier(strategy, noise=noise, seed=5).fit(
            train, randomized_table=randomized, randomizers=randomizers
        )

        assert np.array_equal(looped.intervals_, batched.intervals_)
        assert looped.tree_.export_text() == batched.tree_.export_text()
        assert np.array_equal(looped.predict(test), batched.predict(test))
        for name, looped_result in looped.reconstructions_.items():
            batched_result = batched.reconstructions_[name]
            if isinstance(looped_result, dict):
                pairs = [
                    (looped_result[c], batched_result[c]) for c in looped_result
                ]
            else:
                pairs = [(looped_result, batched_result)]
            for a, b in pairs:
                assert np.array_equal(a.distribution.probs, b.distribution.probs)
                assert a.n_iterations == b.n_iterations
                assert a.converged == b.converged

    def test_byclass_kernels_cached_across_attributes(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("byclass", seed=3).fit(train)
        cache = clf.reconstructor.engine.kernel_cache
        # One lookup per attribute × class; only distinct
        # (partition, randomizer) pairs are built, the rest are hits.
        n_problems = len(clf.randomizers_) * train.n_classes
        assert cache.misses + cache.hits == n_problems
        assert cache.misses <= len(clf.randomizers_)
        assert cache.hits >= n_problems - len(clf.randomizers_)

    def test_intervals_attribute_exposed(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("byclass", seed=3).fit(train)
        assert clf.intervals_ is not None
        assert clf.intervals_.shape == (train.n_records, len(train.attribute_names))
        assert clf.intervals_.dtype == np.int64


class TestStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_strategy_fits_and_predicts(self, fn1_data, strategy):
        train, test = fn1_data
        clf = PrivacyPreservingClassifier(strategy, privacy=0.5, seed=1)
        clf.fit(train)
        preds = clf.predict(test)
        assert preds.shape == (test.n_records,)
        assert set(np.unique(preds)) <= {0, 1}
        assert clf.score(test) > 0.5  # all strategies beat coin flips on Fn1

    def test_original_beats_randomized_at_high_privacy(self, fn1_data):
        train, test = fn1_data
        original = PrivacyPreservingClassifier("original").fit(train).score(test)
        randomized = (
            PrivacyPreservingClassifier("randomized", privacy=2.0, seed=2)
            .fit(train)
            .score(test)
        )
        assert original > randomized + 0.1

    def test_byclass_close_to_original_on_fn1(self, fn1_data):
        """Single-attribute concepts survive ByClass almost unchanged.

        At this deliberately small size (3 000 records) per-class
        reconstruction carries visible sampling noise, so the tolerance is
        loose; the integration test covers the tighter claim at 6 000 and
        the benchmark at paper scale.
        """
        train, test = fn1_data
        original = PrivacyPreservingClassifier("original").fit(train).score(test)
        byclass = (
            PrivacyPreservingClassifier("byclass", privacy=1.0, seed=4)
            .fit(train)
            .score(test)
        )
        assert byclass > original - 0.12

    def test_original_has_no_randomized_state(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("original").fit(train)
        assert clf.randomized_table_ is None
        assert clf.randomizers_ == {}

    def test_randomizers_created_per_attribute(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("byclass", privacy=0.5, seed=4).fit(train)
        assert set(clf.randomizers_) == set(train.attribute_names)

    def test_reconstructions_recorded_byclass(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("byclass", privacy=0.5, seed=5).fit(train)
        assert set(clf.reconstructions_) == set(train.attribute_names)
        age_recs = clf.reconstructions_["age"]
        assert set(age_recs) == {0, 1}

    def test_reconstructions_recorded_global(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("global", privacy=0.5, seed=6).fit(train)
        # global: one reconstruction per attribute (no per-class dict)
        assert hasattr(clf.reconstructions_["age"], "distribution")

    def test_attribute_subset_perturbation(self, fn1_data):
        train, test = fn1_data
        clf = PrivacyPreservingClassifier(
            "byclass", privacy=1.0, seed=7, attributes=("age",)
        ).fit(train)
        assert set(clf.randomizers_) == {"age"}
        assert clf.score(test) > 0.8

    def test_prerandomized_input(self, fn1_data):
        train, test = fn1_data
        randomized, randomizers = quest.randomize(train, privacy=0.5, seed=8)
        clf = PrivacyPreservingClassifier("byclass", privacy=0.5)
        clf.fit(train, randomized_table=randomized, randomizers=randomizers)
        assert clf.randomized_table_ is randomized
        assert clf.score(test) > 0.8

    def test_prerandomized_requires_both(self, fn1_data):
        train, _ = fn1_data
        randomized, _ = quest.randomize(train, privacy=0.5, seed=9)
        clf = PrivacyPreservingClassifier("byclass")
        with pytest.raises(ValidationError):
            clf.fit(train, randomized_table=randomized)

    @pytest.mark.parametrize(
        "strategy", ["randomized", "global", "byclass", "local", "valueclass"]
    )
    def test_prerandomized_must_match_table(self, strategy):
        """A randomized table with other records, or the same records
        with the attributes reordered, is rejected by name instead of
        failing deep in the fit (or training on misaligned columns)."""
        from repro.datasets.schema import Table

        train = quest.generate(600, function=2, seed=23)
        randomized, randomizers = quest.randomize(train, privacy=0.5, seed=24)
        clf = PrivacyPreservingClassifier(strategy, privacy=0.5)
        shorter = randomized.subset(np.arange(500))
        with pytest.raises(ValidationError, match="500 record.*600"):
            clf.fit(train, randomized_table=shorter, randomizers=randomizers)
        reordered = Table(
            randomized.columns, randomized.labels, randomized.schema[::-1]
        )
        with pytest.raises(ValidationError, match="attributes.*do not match"):
            clf.fit(train, randomized_table=reordered, randomizers=randomizers)

    def test_seeded_fit_reproducible(self, fn1_data):
        train, test = fn1_data
        a = PrivacyPreservingClassifier("byclass", privacy=0.5, seed=11).fit(train)
        b = PrivacyPreservingClassifier("byclass", privacy=0.5, seed=11).fit(train)
        np.testing.assert_array_equal(a.predict(test), b.predict(test))

    def test_gaussian_noise_supported(self, fn1_data):
        train, test = fn1_data
        clf = PrivacyPreservingClassifier(
            "byclass", noise="gaussian", privacy=0.5, seed=12
        ).fit(train)
        assert clf.score(test) > 0.8

    def test_local_close_to_byclass(self, fn1_data):
        train, test = fn1_data
        byclass = (
            PrivacyPreservingClassifier("byclass", privacy=1.0, seed=13)
            .fit(train)
            .score(test)
        )
        local = (
            PrivacyPreservingClassifier("local", privacy=1.0, seed=13)
            .fit(train)
            .score(test)
        )
        assert abs(local - byclass) < 0.12

    def test_valueclass_discloses_midpoints_only(self, fn1_data):
        train, test = fn1_data
        clf = PrivacyPreservingClassifier(
            "valueclass", privacy=0.25, seed=14
        ).fit(train)
        disclosed_ages = np.unique(clf.randomized_table_.column("age"))
        # privacy 0.25 => 4 coarse intervals => at most 4 disclosed values
        assert disclosed_ages.size <= 4
        assert clf.score(test) > 0.7

    def test_valueclass_worse_than_byclass_at_matched_privacy(self, fn1_data):
        """The paper's §2 argument for preferring value distortion."""
        train, test = fn1_data
        vc = (
            PrivacyPreservingClassifier("valueclass", privacy=0.5, seed=15)
            .fit(train)
            .score(test)
        )
        bc = (
            PrivacyPreservingClassifier("byclass", privacy=0.5, seed=15)
            .fit(train)
            .score(test)
        )
        assert bc > vc - 0.03

    def test_prune_fraction_shrinks_tree(self, fn1_data):
        train, test = fn1_data
        grown = PrivacyPreservingClassifier(
            "randomized", privacy=1.0, seed=16
        ).fit(train)
        pruned = PrivacyPreservingClassifier(
            "randomized", privacy=1.0, seed=16, prune_fraction=0.2
        ).fit(train)
        assert pruned.tree_.n_nodes < grown.tree_.n_nodes
        assert pruned.score(test) > grown.score(test) - 0.05

    def test_prune_fraction_validated(self):
        with pytest.raises(ValidationError):
            PrivacyPreservingClassifier(prune_fraction=0.5)
        with pytest.raises(ValidationError):
            PrivacyPreservingClassifier(prune_fraction=-0.1)

    def test_prune_fraction_works_for_corrected_strategies(self, fn1_data):
        train, test = fn1_data
        clf = PrivacyPreservingClassifier(
            "byclass", privacy=1.0, seed=17, prune_fraction=0.2
        ).fit(train)
        assert clf.score(test) > 0.8

    def test_auto_stopping_resolution(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier("original").fit(train)
        assert clf.tree_.max_depth == 8
        assert clf.tree_.min_records_split == max(10, round(0.01 * train.n_records))

    def test_explicit_stopping_overrides(self, fn1_data):
        train, _ = fn1_data
        clf = PrivacyPreservingClassifier(
            "original", max_depth=2, min_records_split=50
        ).fit(train)
        assert clf.tree_.depth <= 2
