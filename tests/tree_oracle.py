"""The depth-first tree builder, kept as the oracle of the level-wise one.

:func:`recursive_fit` grows a tree the way ``DecisionTreeClassifier``
did before it grew trees level by level: one split search per node, one
``split_impurities`` call per node and attribute, children built left
subtree first.  ``tests/test_tree.py`` and ``tests/test_properties.py``
check that the library's trees are ``identical_to`` the trees it grows.
"""

from __future__ import annotations

import numpy as np

from repro.tree import criteria
from repro.tree.tree import _GAIN_ATOL, DecisionTreeClassifier, TreeNode


def recursive_fit(
    tree: DecisionTreeClassifier,
    interval_matrix,
    labels,
    *,
    raw_values=None,
    node_transformer=None,
) -> DecisionTreeClassifier:
    """Fit ``tree`` in place, depth first, and return it."""
    intervals = np.asarray(interval_matrix, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    raw = None if raw_values is None else np.asarray(raw_values, dtype=float)
    n_classes = int(labels.max()) + 1
    impurity_fn = criteria._ROW_IMPURITY[tree.criterion]

    def best_split(intervals, labels):
        best = (np.inf, -1, -1)
        for j, partition in enumerate(tree.partitions):
            m = partition.n_intervals
            if m < 2:
                continue
            flat = intervals[:, j] * n_classes + labels
            counts = np.bincount(flat, minlength=m * n_classes).reshape(
                m, n_classes
            )
            impurities = criteria.split_impurities(counts, tree.criterion)
            k = int(np.argmin(impurities))
            if impurities[k] < best[0]:
                best = (float(impurities[k]), j, k)
        return best

    def build(intervals, labels, raw, depth, used):
        if node_transformer is not None and depth > 0:
            intervals = node_transformer(raw, labels, intervals, used)
        counts = np.bincount(labels, minlength=n_classes).astype(float)
        node = TreeNode(class_counts=counts, depth=depth)
        if (
            labels.size < tree.min_records_split
            or (tree.max_depth is not None and depth >= tree.max_depth)
            or np.count_nonzero(counts) <= 1
        ):
            return node
        parent_impurity = float(
            impurity_fn(counts[None, :], np.array([counts.sum()]))[0]
        )
        best_impurity, j, k = best_split(intervals, labels)
        gain = parent_impurity - best_impurity
        if j < 0 or gain <= max(tree.min_gain, _GAIN_ATOL):
            return node
        go_left = intervals[:, j] <= k
        if not go_left.any() or go_left.all():
            return node
        node.attribute_index = j
        node.threshold = float(tree.partitions[j].edges[k + 1])
        child_used = used | {j}
        node.left = build(
            intervals[go_left],
            labels[go_left],
            raw[go_left] if raw is not None else None,
            depth + 1,
            child_used,
        )
        node.right = build(
            intervals[~go_left],
            labels[~go_left],
            raw[~go_left] if raw is not None else None,
            depth + 1,
            child_used,
        )
        return node

    tree.n_classes_ = n_classes
    tree.root_ = build(intervals, labels, raw, 0, frozenset())
    return tree
