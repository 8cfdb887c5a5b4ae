"""Tests for impurity criteria and the vectorized split search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.tree.criteria import entropy, gini, split_impurities


class TestGini:
    def test_pure_node_zero(self):
        assert gini([10, 0]) == 0.0
        assert gini([0, 42]) == 0.0

    def test_balanced_two_class(self):
        assert gini([5, 5]) == pytest.approx(0.5)

    def test_balanced_k_class(self):
        assert gini([3, 3, 3]) == pytest.approx(2 / 3)

    def test_empty_node(self):
        assert gini([0, 0]) == 0.0

    def test_bounded(self):
        assert 0 <= gini([7, 2, 1]) < 1


class TestEntropy:
    def test_pure_node_zero(self):
        assert entropy([10, 0]) == 0.0

    def test_balanced_two_class_one_bit(self):
        assert entropy([5, 5]) == pytest.approx(1.0)

    def test_empty_node(self):
        assert entropy([0, 0]) == 0.0

    def test_uniform_k_class(self):
        assert entropy([1, 1, 1, 1]) == pytest.approx(2.0)


class TestSplitImpurities:
    def test_perfect_split_found(self):
        # intervals 0-1 pure class 0, intervals 2-3 pure class 1
        counts = np.array([[10, 0], [10, 0], [0, 10], [0, 10]])
        impurities = split_impurities(counts)
        assert impurities.shape == (3,)
        assert np.argmin(impurities) == 1
        assert impurities[1] == pytest.approx(0.0)

    def test_no_split_helps_on_uniform_mix(self):
        counts = np.array([[5, 5], [5, 5], [5, 5]])
        impurities = split_impurities(counts)
        np.testing.assert_allclose(impurities, 0.5)

    def test_single_interval_no_candidates(self):
        assert split_impurities(np.array([[3, 4]])).size == 0

    def test_empty_intervals_handled(self):
        counts = np.array([[10, 0], [0, 0], [0, 10]])
        impurities = split_impurities(counts)
        assert np.isfinite(impurities).all()
        assert impurities.min() == pytest.approx(0.0)

    def test_entropy_criterion(self):
        counts = np.array([[8, 0], [0, 8]])
        assert split_impurities(counts, "entropy")[0] == pytest.approx(0.0)

    def test_rejects_bad_criterion(self):
        with pytest.raises(ValidationError):
            split_impurities(np.array([[1, 1], [1, 1]]), "misclass")

    def test_rejects_1d_input(self):
        with pytest.raises(ValidationError):
            split_impurities(np.array([1, 2, 3]))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("n_classes", [2, 3, 10])
    def test_a_stack_scores_each_node_as_alone(self, criterion, n_classes):
        """Bitwise: the level-wise tree builder relies on it."""
        rng = np.random.default_rng(n_classes)
        stack = rng.integers(0, 30, size=(7, 9, n_classes))
        stack[2] = 0  # a node with no records
        stack[4, :, 1:] = 0  # a pure node
        scores = split_impurities(stack, criterion)
        assert scores.shape == (7, 8)
        for node, counts in zip(scores, stack):
            assert np.array_equal(node, split_impurities(counts, criterion))
        assert split_impurities(stack[:, :1], criterion).shape == (7, 0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 20, size=(6, 3))
        impurities = split_impurities(counts)
        n = counts.sum()
        for k in range(5):
            left = counts[: k + 1].sum(axis=0)
            right = counts[k + 1 :].sum(axis=0)
            expected = (left.sum() * gini(left) + right.sum() * gini(right)) / n
            assert impurities[k] == pytest.approx(expected)


@given(
    counts=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=2, max_size=12
    ).filter(lambda rows: sum(a + b for a, b in rows) > 0)
)
def test_property_split_never_beats_zero_and_never_worse_than_parent(counts):
    matrix = np.asarray(counts, dtype=float)
    impurities = split_impurities(matrix)
    parent = gini(matrix.sum(axis=0))
    assert np.all(impurities >= -1e-12)
    # splitting cannot increase weighted gini (concavity of gini)
    assert np.all(impurities <= parent + 1e-9)


@given(
    probs=st.lists(st.integers(0, 100), min_size=2, max_size=6).filter(
        lambda c: sum(c) > 0
    )
)
def test_property_gini_entropy_bounds(probs):
    g = gini(probs)
    h = entropy(probs)
    k = sum(1 for p in probs if p > 0)
    assert 0 <= g <= 1 - 1 / max(k, 1) + 1e-12
    assert 0 <= h <= np.log2(max(k, 1)) + 1e-9
