"""Tests for the interval-based decision tree."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from tree_oracle import recursive_fit

from repro.core.partition import Partition
from repro.datasets import quest
from repro.exceptions import NotFittedError, ValidationError
from repro.tree import criteria
from repro.tree import tree as tree_module
from repro.tree.tree import DecisionTreeClassifier, TreeNode


def make_tree(n_attrs=1, m=10, **kwargs):
    return DecisionTreeClassifier(
        [Partition.uniform(0, 1, m) for _ in range(n_attrs)], **kwargs
    )


@pytest.fixture
def xor_data(rng):
    """Two attributes; class = XOR of halves — needs depth 2."""
    x = rng.random((2_000, 2))
    y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5)).astype(int)
    return x, y


class TestConfiguration:
    def test_requires_partitions(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier([])

    def test_rejects_non_partition(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier([np.array([0, 1])])

    def test_rejects_bad_criterion(self):
        with pytest.raises(ValidationError):
            make_tree(criterion="mse")

    def test_rejects_bad_min_split(self):
        with pytest.raises(ValidationError):
            make_tree(min_records_split=1)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValidationError):
            make_tree(max_depth=-1)

    def test_rejects_mismatched_names(self):
        with pytest.raises(ValidationError):
            make_tree(n_attrs=2, attribute_names=["only-one"])


class TestFitting:
    def test_simple_threshold(self):
        tree = make_tree()
        x = np.linspace(0, 0.999, 200)[:, None]
        y = (x[:, 0] >= 0.5).astype(int)
        tree.fit(x, y)
        assert tree.root_.attribute_index == 0
        assert tree.root_.threshold == pytest.approx(0.5)
        assert tree.score(x, y) == 1.0

    def test_xor_needs_two_levels(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2)
        tree.fit(x, y)
        assert tree.depth >= 2
        assert tree.score(x, y) > 0.95

    def test_pure_labels_give_leaf(self):
        tree = make_tree()
        tree.fit(np.random.default_rng(0).random((50, 1)), np.zeros(50, dtype=int))
        assert tree.root_.is_leaf
        assert tree.root_.prediction == 0

    def test_max_depth_zero_gives_stump(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2, max_depth=0)
        tree.fit(x, y)
        assert tree.root_.is_leaf

    def test_min_records_split_respected(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2, min_records_split=10_000)
        tree.fit(x, y)
        assert tree.root_.is_leaf

    def test_min_gain_blocks_marginal_splits(self, rng):
        x = rng.random((500, 1))
        y = rng.integers(0, 2, 500)  # pure noise
        tree = make_tree(min_gain=0.01)
        tree.fit(x, y)
        assert tree.n_nodes <= 3

    def test_multiclass(self, rng):
        x = rng.random((900, 1))
        y = np.digitize(x[:, 0], [1 / 3, 2 / 3])
        tree = make_tree(m=30)
        tree.fit(x, y)
        assert tree.n_classes_ == 3
        assert tree.score(x, y) > 0.95

    def test_fit_intervals_direct(self):
        tree = make_tree(m=4)
        intervals = np.array([[0], [1], [2], [3]] * 20)
        labels = (intervals[:, 0] >= 2).astype(int)
        tree.fit_intervals(intervals, labels)
        assert tree.score(np.array([[0.1], [0.9]]), np.array([0, 1])) == 1.0

    def test_fit_empty_rejected(self):
        tree = make_tree()
        with pytest.raises(ValidationError):
            tree.fit(np.empty((0, 1)), np.empty(0, dtype=int))

    def test_fit_wrong_width_rejected(self):
        tree = make_tree(n_attrs=2)
        with pytest.raises(ValidationError):
            tree.fit(np.zeros((5, 3)), np.zeros(5, dtype=int))

    def test_transformer_requires_raw(self):
        tree = make_tree()
        with pytest.raises(ValidationError):
            tree.fit_intervals(
                np.zeros((5, 1), dtype=int),
                np.zeros(5, dtype=int),
                node_transformer=lambda *a: a[2],
            )

    def test_node_transformer_receives_used_attributes(self, xor_data):
        x, y = xor_data
        seen_used = []

        def transformer(raw, labels, intervals, used):
            seen_used.append(used)
            return intervals

        tree = make_tree(n_attrs=2)
        tree.fit_intervals(
            tree.locate(x), y, raw_values=x, node_transformer=transformer
        )
        assert seen_used  # called at non-root nodes
        assert all(isinstance(u, frozenset) for u in seen_used)
        assert any(len(u) >= 1 for u in seen_used)


class TestPrediction:
    def test_not_fitted_raises(self):
        tree = make_tree()
        with pytest.raises(NotFittedError):
            tree.predict(np.zeros((1, 1)))
        with pytest.raises(NotFittedError):
            _ = tree.n_nodes

    def test_predict_shape(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2)
        tree.fit(x, y)
        assert tree.predict(x[:17]).shape == (17,)

    def test_predict_wrong_width_rejected(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2)
        tree.fit(x, y)
        with pytest.raises(ValidationError):
            tree.predict(np.zeros((3, 5)))

    def test_out_of_domain_values_routed(self):
        tree = make_tree()
        x = np.linspace(0, 0.999, 100)[:, None]
        y = (x[:, 0] >= 0.5).astype(int)
        tree.fit(x, y)
        preds = tree.predict(np.array([[-10.0], [10.0]]))
        np.testing.assert_array_equal(preds, [0, 1])

    def test_export_text(self, xor_data):
        x, y = xor_data
        tree = make_tree(
            n_attrs=2, attribute_names=["alpha", "beta"], max_depth=3
        )
        tree.fit(x, y)
        text = tree.export_text()
        assert "alpha" in text or "beta" in text
        assert "predict" in text

    def test_node_counts_consistent(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2)
        tree.fit(x, y)
        # internal node counts equal the sum of their children's
        stack = [tree.root_]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                total = node.left.class_counts + node.right.class_counts
                np.testing.assert_allclose(node.class_counts, total)
                stack.extend((node.left, node.right))


class TestPruning:
    def test_noise_tree_collapses(self, rng):
        """A tree grown on pure noise prunes back to (almost) a stump."""
        x = rng.random((2_000, 2))
        y = rng.integers(0, 2, 2_000)
        tree = make_tree(n_attrs=2, min_records_split=20)
        tree.fit(x[:1_500], y[:1_500])
        grown = tree.n_nodes
        removed = tree.prune(x[1_500:], y[1_500:])
        assert removed > 0
        # reduced-error pruning can keep chance-lucky subtrees, but the
        # bulk of a noise-fitted tree must go
        assert tree.n_nodes < 0.5 * grown

    def test_signal_tree_survives(self, rng):
        x = rng.random((2_000, 1))
        y = (x[:, 0] > 0.5).astype(int)
        tree = make_tree()
        tree.fit(x[:1_500], y[:1_500])
        tree.prune(x[1_500:], y[1_500:])
        assert tree.depth >= 1  # the real split stays
        assert tree.score(x[1_500:], y[1_500:]) > 0.95

    def test_prune_never_hurts_validation_accuracy(self, xor_data, rng):
        x, y = xor_data
        hold = rng.random((500, 2))
        hold_y = ((hold[:, 0] > 0.5) ^ (hold[:, 1] > 0.5)).astype(int)
        tree = make_tree(n_attrs=2, min_records_split=5)
        tree.fit(x, y)
        before = tree.score(hold, hold_y)
        tree.prune(hold, hold_y)
        assert tree.score(hold, hold_y) >= before - 1e-12

    def test_prune_requires_fit(self):
        tree = make_tree()
        with pytest.raises(NotFittedError):
            tree.prune(np.zeros((1, 1)), np.zeros(1, dtype=int))

    def test_prune_validates_shapes(self, xor_data):
        x, y = xor_data
        tree = make_tree(n_attrs=2)
        tree.fit(x, y)
        with pytest.raises(ValidationError):
            tree.prune(np.zeros((3, 5)), np.zeros(3, dtype=int))
        with pytest.raises(ValidationError):
            tree.prune(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_unseen_branches_collapse(self, rng):
        """Branches no validation record reaches are pruned away."""
        x = rng.random((1_000, 1))
        y = (x[:, 0] > 0.5).astype(int)
        tree = make_tree(min_records_split=5)
        tree.fit(x, y)
        # validation set confined to [0, 0.4]: the right subtree is unseen
        hold = rng.random((200, 1)) * 0.4
        tree.prune(hold, np.zeros(200, dtype=int))
        assert tree.root_.is_leaf or tree.root_.right.is_leaf


class TestTreeNode:
    def test_leaf_properties(self):
        node = TreeNode(class_counts=np.array([3.0, 7.0]), depth=0)
        assert node.is_leaf
        assert node.prediction == 1
        assert node.n_records == 10

    def test_tie_breaks_to_lower_label(self):
        node = TreeNode(class_counts=np.array([5.0, 5.0]), depth=0)
        assert node.prediction == 0


@given(
    seed=st.integers(0, 10_000),
    threshold=st.floats(0.15, 0.85),
    n=st.integers(50, 400),
)
def test_property_single_split_recovery(seed, threshold, n):
    """A tree must recover any single-threshold concept up to grid error."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1))
    y = (x[:, 0] >= threshold).astype(int)
    if len(np.unique(y)) < 2:
        return
    tree = DecisionTreeClassifier([Partition.uniform(0, 1, 40)])
    tree.fit(x, y)
    # training accuracy only limited by the 1/40 grid
    assert tree.score(x, y) >= 0.9


def test_identical_to_unfitted_comparand_is_false():
    fitted = DecisionTreeClassifier([Partition.uniform(0, 1, 4)]).fit(
        np.array([[0.1], [0.9]]), np.array([0, 1])
    )
    unfitted = DecisionTreeClassifier([Partition.uniform(0, 1, 4)])
    assert not fitted.identical_to(unfitted)
    assert not fitted.identical_to("not a tree")
    assert fitted.identical_to(fitted)


class TestIntervalRange:
    """Interval indices outside an attribute's grid are refused by name,
    once per fit and before any table is built."""

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_index_names_its_column(self, bad, monkeypatch):
        tables = []
        monkeypatch.setattr(
            tree_module, "split_impurities", lambda *a: tables.append(a)
        )
        tree = make_tree(n_attrs=2, m=4, attribute_names=["age", "salary"])
        intervals = np.array([[0, 1], [1, 2], [2, bad], [3, 0]] * 5)
        labels = np.array([0, 1] * 10)
        with pytest.raises(ValidationError) as refused:
            tree.fit_intervals(intervals, labels)
        assert str(refused.value) == (
            f"interval_matrix column 1 ('salary') holds interval {bad}, "
            "outside [0, 4)"
        )
        assert tables == []

    def test_single_interval_attribute_takes_only_zero(self):
        tree = DecisionTreeClassifier(
            [Partition.uniform(0, 1, 4), Partition.uniform(0, 1, 1)]
        )
        labels = np.array([0, 1] * 4)
        intervals = np.column_stack([np.arange(8) % 4, np.zeros(8, int)])
        tree.fit_intervals(intervals, labels)
        intervals[3, 1] = 1
        with pytest.raises(ValidationError, match=r"column 1 .* outside \[0, 1\)"):
            tree.fit_intervals(intervals, labels)

    @pytest.mark.parametrize(
        "result, message",
        [
            (lambda x: x + 3, r"node_transformer result column 0 .* interval 6"),
            (lambda x: x - 1, r"node_transformer result column 0 .* interval -1"),
            (lambda x: x[:, :1], r"node_transformer must return shape"),
        ],
        ids=["past-the-grid", "negative", "wrong-shape"],
    )
    def test_transformer_results_are_checked(self, xor_data, result, message):
        x, y = xor_data
        tree = make_tree(n_attrs=2, m=4)
        with pytest.raises(ValidationError, match=message):
            tree.fit_intervals(
                tree.locate(x), y, raw_values=x,
                node_transformer=lambda raw, labels, iv, used: result(iv),
            )


def analyst_buffer():
    """An 8,192-row byclass problem shaped like servebench's analyst
    buffer: 4 Quest attributes at 100% privacy on 24 intervals, 2 classes,
    corrected per class.  Returns ``(tree, intervals, labels)``."""
    from repro.service import TrainingService, service_from_spec
    from repro.tree.pipeline import build_tree, correct_intervals

    attributes = [
        {"name": "salary", "low": 20_000, "high": 150_000},
        {"name": "age", "low": 20, "high": 80},
        {"name": "hvalue", "low": 50_000, "high": 1_350_000},
        {"name": "loan", "low": 0, "high": 500_000},
    ]
    for attribute in attributes:
        attribute.update(noise="uniform", privacy=1.0)
    service = service_from_spec(
        {"classes": 2, "intervals": 24, "attributes": attributes}
    )
    training = TrainingService(service)
    rng = np.random.default_rng(1)
    for _ in range(2):
        table = quest.generate(4_096, function=2, seed=rng)
        batch = {
            name: service.spec(name).randomizer.randomize(
                table.column(name), seed=rng
            )
            for name in service.attributes
        }
        training.ingest(batch, table.labels.astype(np.int64))
    blocks = training.export_rows()
    w_matrix = np.vstack([matrix for matrix, _ in blocks])
    labels = np.concatenate([block_labels for _, block_labels in blocks])
    specs = [service.spec(name) for name in service.attributes]
    partitions = [spec.x_partition for spec in specs]
    intervals, _ = correct_intervals(
        "byclass", w_matrix, labels, partitions,
        [spec.randomizer for spec in specs], service.engine,
    )

    def tree():
        return build_tree(
            partitions, service.attributes, labels.size, criterion="gini",
            max_depth="auto", min_records_split="auto", min_gain=0.0,
        )

    return tree, intervals, labels


def counting(monkeypatch, module, calls):
    """Wrap ``module.split_impurities`` to log each table stack's shape."""
    scorer = module.split_impurities

    def counted(tables, criterion="gini"):
        calls.append(np.shape(tables))
        return scorer(tables, criterion)

    monkeypatch.setattr(module, "split_impurities", counted)


class TestLevelWise:
    """The level-wise builder grows the depth-first oracle's trees with
    one batched split search per level, attribute and chunk."""

    def test_one_split_search_per_level_and_attribute(self, monkeypatch):
        tree, intervals, labels = analyst_buffer()
        batched, per_node = [], []
        counting(monkeypatch, tree_module, batched)
        counting(monkeypatch, criteria, per_node)
        grown = tree().fit_intervals(intervals, labels)
        expected = recursive_fit(tree(), intervals, labels)
        assert grown.identical_to(expected)
        assert (grown.n_nodes, grown.depth) == (169, 8)
        # levels 0-7 search, 4 attributes each: 32 calls, where the
        # recursion made one per searched node and attribute
        assert len(batched) == 8 * 4
        assert len(per_node) == 84 * 4
        assert all(len(shape) == 3 for shape in batched)
        assert sum(shape[0] for shape in batched) == len(per_node)

    def test_a_level_wider_than_the_budget_is_searched_in_chunks(
        self, monkeypatch
    ):
        tree, intervals, labels = analyst_buffer()
        width = max(p.n_intervals for p in tree().partitions) * 2
        monkeypatch.setattr(tree_module, "_CHUNK_CELLS", 3 * width)
        batched = []
        counting(monkeypatch, tree_module, batched)
        grown = tree().fit_intervals(intervals, labels)
        assert grown.identical_to(recursive_fit(tree(), intervals, labels))
        assert len(batched) > 8 * 4
        assert max(shape[0] for shape in batched) == 3

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_many_classes_match_the_oracle(self, rng, criterion):
        # ten classes: row sums of ten or more terms take NumPy's
        # pairwise path, which a batched stack must take per row too
        x = rng.random((3_000, 3))
        y = np.floor(x[:, 0] * 10).astype(int)
        noisy = rng.random(3_000) < 0.3
        y[noisy] = rng.integers(0, 10, int(noisy.sum()))
        parts = [Partition.uniform(0, 1, 12) for _ in range(3)]
        tree = DecisionTreeClassifier(parts, criterion=criterion)
        grown = tree.fit(x, y)
        assert grown.n_classes_ == 10
        expected = recursive_fit(
            DecisionTreeClassifier(parts, criterion=criterion), tree.locate(x), y
        )
        assert grown.identical_to(expected)

    def test_local_refit_gets_the_oracles_calls(self):
        from repro.core import BayesReconstructor, UniformRandomizer
        from repro.tree.pipeline import local_refit

        table = quest.generate(3_000, function=1, seed=4)
        names = ("age", "salary", "elevel")
        noise = UniformRandomizer(half_width=10.0)
        rng = np.random.default_rng(5)
        x = np.column_stack([table.column(n) for n in names])
        w = x.copy()
        w[:, 0] = noise.randomize(x[:, 0], seed=rng)
        partitions = [table.attribute(n).partition(12) for n in names]
        randomizers = [noise, None, None]

        def recorded(calls):
            refit = local_refit(partitions, randomizers, BayesReconstructor(), 50)

            def transform(raw, labels, intervals, used):
                out = refit(raw, labels, intervals, used)
                calls.append((
                    tuple(sorted(used)), raw.tobytes(), labels.tobytes(),
                    intervals.tobytes(), intervals.flags.c_contiguous,
                    out.tobytes(),
                ))
                return out

            return transform

        def tree():
            return DecisionTreeClassifier(partitions, max_depth=5)

        intervals = tree().locate(w)
        calls, oracle_calls = [], []
        grown = tree().fit_intervals(
            intervals, table.labels, raw_values=w,
            node_transformer=recorded(calls),
        )
        expected = recursive_fit(
            tree(), intervals, table.labels, raw_values=w,
            node_transformer=recorded(oracle_calls),
        )
        assert grown.identical_to(expected)
        assert len(calls) == grown.n_nodes - 1
        assert sorted(calls) == sorted(oracle_calls)

    def test_memory_of_a_wide_unbounded_fit_is_bounded(self):
        """Random labels on 1,000 intervals: 9,523 nodes, 53 levels, the
        widest with over a thousand open nodes.  Unchunked, a level's
        tables would peak at ~57 MiB; the depth-first oracle peaks at
        ~15 MiB."""
        rng = np.random.default_rng(3)
        parts = [Partition.uniform(0, 1, 1_000) for _ in range(8)]
        intervals = rng.integers(0, 1_000, (20_000, 8))
        labels = rng.integers(0, 2, 20_000)
        tree = DecisionTreeClassifier(parts)
        tracemalloc.start()
        try:
            tree.fit_intervals(intervals, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tree.n_nodes, tree.depth) == (9_523, 53)
        assert peak < 16 << 20, peak
