"""Interval-based decision trees (paper §4's classification substrate).

The paper's trees differ from textbook CART in one structural way: every
attribute is discretized into the same interval grid used by distribution
reconstruction, and **candidate split points are the interval boundaries**.
That convention is what lets the same tree builder train on original
values, raw randomized values, and reconstruction-corrected values — the
three take different routes to an interval index per record, then share
the split search.

The builder grows a tree one level at a time.  Each record carries the
index of the open node it has reached, so one ``np.bincount`` over
(node, interval, class) per attribute gives every open node's
contingency table, and :func:`~repro.tree.criteria.split_impurities`
scores the whole ``(nodes, m, C)`` stack in one pass.  A wide level is
searched a chunk of nodes at a time (:data:`_CHUNK_CELLS`).  Each node
still gets exactly the float operations, first-minimum tie-breaks and
stop rules of a node-by-node search, so the trees are the ones a
depth-first recursion grows.

``Local`` training (re-reconstructing distributions at every tree node) is
supported through the builder's ``node_transformer`` hook, which may remap
a node's records to new intervals before its split is chosen.

The paper does not prune; neither do we.  Growth is bounded by
``max_depth`` / ``min_records_split`` / ``min_gain`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.partition import Partition
from repro.exceptions import NotFittedError, ValidationError
from repro.tree.criteria import CRITERIA, _ROW_IMPURITY, split_impurities

#: minimum impurity improvement treated as a real gain (guards float noise)
_GAIN_ATOL = 1e-12

#: table cells (nodes x intervals x classes, at the widest attribute) one
#: batched split search covers; a wider level is searched a chunk of nodes
#: at a time, so its short-lived tables stay a few MiB however wide it is
_CHUNK_CELLS = 1 << 16

#: records per block when the builder lays each attribute out contiguously
_TRANSPOSE_ROWS = 4096


@dataclass
class TreeNode:
    """One node of a fitted decision tree.

    Internal nodes hold ``attribute_index`` and ``threshold`` (records with
    ``value < threshold`` go left); leaves hold neither.  Every node keeps
    its training class counts for diagnostics and majority prediction.
    """

    class_counts: np.ndarray
    depth: int
    attribute_index: int = -1
    threshold: float = float("nan")
    left: "TreeNode | None" = field(default=None, repr=False)
    right: "TreeNode | None" = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        """True when the node has no split."""
        return self.left is None

    @property
    def n_records(self) -> int:
        """Training records that reached this node."""
        return int(self.class_counts.sum())

    @property
    def prediction(self) -> int:
        """Majority class at this node (ties break toward lower labels)."""
        return int(np.argmax(self.class_counts))


class DecisionTreeClassifier:
    """Binary-split decision tree with splits at interval boundaries.

    Parameters
    ----------
    partitions:
        One :class:`~repro.core.partition.Partition` per attribute, fixing
        the candidate split points.
    criterion:
        ``"gini"`` (the paper's choice) or ``"entropy"``.
    max_depth:
        Depth cap (``None`` = unbounded).
    min_records_split:
        Nodes with fewer records become leaves.
    min_gain:
        Minimum impurity decrease for a split to be accepted.
    attribute_names:
        Optional names used by :meth:`export_text`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition
    >>> x = np.linspace(0, 1, 200)[:, None]
    >>> y = (x[:, 0] > 0.5).astype(int)
    >>> tree = DecisionTreeClassifier([Partition.uniform(0, 1, 10)])
    >>> _ = tree.fit(x, y)
    >>> int(tree.predict(np.array([[0.1], [0.9]]))[1])
    1
    """

    def __init__(
        self,
        partitions,
        *,
        criterion: str = "gini",
        max_depth=None,
        min_records_split: int = 2,
        min_gain: float = 0.0,
        attribute_names=None,
    ) -> None:
        self.partitions = list(partitions)
        if not self.partitions:
            raise ValidationError("at least one attribute partition is required")
        for p in self.partitions:
            if not isinstance(p, Partition):
                raise ValidationError("partitions must be Partition instances")
        if criterion not in CRITERIA:
            raise ValidationError(f"criterion must be one of {CRITERIA}")
        if max_depth is not None and max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {max_depth}")
        if min_records_split < 2:
            raise ValidationError(
                f"min_records_split must be >= 2, got {min_records_split}"
            )
        if min_gain < 0:
            raise ValidationError(f"min_gain must be >= 0, got {min_gain}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_records_split = int(min_records_split)
        self.min_gain = float(min_gain)
        if attribute_names is not None and len(attribute_names) != len(self.partitions):
            raise ValidationError("attribute_names must match partitions in length")
        self.attribute_names = (
            list(attribute_names)
            if attribute_names is not None
            else [f"attr{j}" for j in range(len(self.partitions))]
        )
        self.root_: TreeNode | None = None
        self.n_classes_: int = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def locate(self, values: np.ndarray) -> np.ndarray:
        """Map a raw ``(n, d)`` value matrix to interval indices per attribute."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.partitions):
            raise ValidationError(
                f"values must have shape (n, {len(self.partitions)}), "
                f"got {values.shape}"
            )
        columns = [
            self.partitions[j].locate(values[:, j]) for j in range(values.shape[1])
        ]
        return np.column_stack(columns)

    def fit(self, values, labels) -> "DecisionTreeClassifier":
        """Fit on raw values (located into intervals internally)."""
        values = np.asarray(values, dtype=float)
        return self.fit_intervals(self.locate(values), labels)

    def fit_intervals(
        self,
        interval_matrix,
        labels,
        *,
        raw_values=None,
        node_transformer=None,
    ) -> "DecisionTreeClassifier":
        """Fit on precomputed interval indices.

        Parameters
        ----------
        interval_matrix:
            ``(n, d)`` integer matrix of per-attribute interval indices,
            each in ``[0, n_intervals)`` of its attribute's partition; an
            index outside is a :class:`~repro.exceptions.ValidationError`
            naming the column.
        labels:
            Integer class labels, ``0 .. C-1``.
        raw_values:
            Optional ``(n, d)`` matrix of the *randomized* raw values,
            required when ``node_transformer`` is given.
        node_transformer:
            Optional hook ``f(raw_subset, labels_subset, intervals_subset,
            used_attributes) -> intervals_subset`` invoked at every non-root
            node before its split search — the paper's *Local* training
            algorithm re-reconstructs and re-corrects there.
            ``used_attributes`` is the frozenset of attribute indices
            already split on along the path; re-reconstructing those is
            statistically invalid (their randomized values were truncated
            by the routing itself), so transformers should skip them.
            Each node's records arrive in their original order, and the
            result must keep the node's shape and interval ranges.
        """
        intervals = np.asarray(interval_matrix, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if intervals.ndim != 2 or intervals.shape[1] != len(self.partitions):
            raise ValidationError(
                f"interval_matrix must have shape (n, {len(self.partitions)}), "
                f"got {intervals.shape}"
            )
        if labels.shape != (intervals.shape[0],):
            raise ValidationError("labels length must match interval_matrix rows")
        if labels.size == 0:
            raise ValidationError("cannot fit on an empty dataset")
        if labels.min() < 0:
            raise ValidationError("labels must be non-negative integers")
        if node_transformer is not None and raw_values is None:
            raise ValidationError("node_transformer requires raw_values")
        raw = None
        if raw_values is not None:
            raw = np.asarray(raw_values, dtype=float)
            if raw.shape != intervals.shape:
                raise ValidationError("raw_values must match interval_matrix shape")
        self._check_intervals(intervals, "interval_matrix")

        self.n_classes_ = int(labels.max()) + 1
        self.root_ = self._grow(intervals, labels, raw, node_transformer)
        return self

    def _check_intervals(self, intervals: np.ndarray, source: str) -> None:
        """Refuse an interval index outside its attribute's ``[0, m)``.

        The builder counts each record at the flat table position of its
        (node, interval, class), so an index out of range would land in
        a neighbouring node's counts.
        """
        sizes = np.array([p.n_intervals for p in self.partitions])
        low, high = intervals.min(axis=0), intervals.max(axis=0)
        wrong = np.flatnonzero((low < 0) | (high >= sizes))
        if wrong.size:
            j = int(wrong[0])
            bad = int(low[j]) if low[j] < 0 else int(high[j])
            raise ValidationError(
                f"{source} column {j} ({self.attribute_names[j]!r}) holds "
                f"interval {bad}, outside [0, {sizes[j]})"
            )

    def _transform(self, transformer, raw, labels, intervals, used) -> np.ndarray:
        """One node's ``node_transformer`` call, its result checked."""
        out = np.asarray(transformer(raw, labels, intervals, used), dtype=np.int64)
        if out.shape != intervals.shape:
            raise ValidationError(
                f"node_transformer must return shape {intervals.shape}, "
                f"got {out.shape}"
            )
        self._check_intervals(out, "node_transformer result")
        return out

    def _grow(self, intervals, labels, raw, transformer) -> TreeNode:
        """Grow the tree level by level; return its root.

        ``level[s]`` is a level's open node ``s`` and the attributes split
        on along its path, and ``counts[s]`` its class counts.  ``rows``
        holds the records that reached the level's nodes, in ascending
        order, and ``owner[i]`` is the node of ``rows[i]``.
        """
        n_classes = self.n_classes_
        threshold = max(self.min_gain, _GAIN_ATOL)
        impurity = _ROW_IMPURITY[self.criterion]
        # each record's (interval, class) pair as one key, one contiguous
        # row per attribute (transposed a block of records at a time,
        # which keeps both sides of the copy in cache)
        keys = np.empty(intervals.shape[::-1], dtype=np.int64)
        for start in range(0, labels.size, _TRANSPOSE_ROWS):
            block = slice(start, start + _TRANSPOSE_ROWS)
            np.multiply(intervals[block].T, n_classes, out=keys[:, block])
        keys += labels
        if transformer is not None:
            intervals = intervals.copy()  # rewritten node by node
        rows = np.arange(labels.size)
        owner = np.zeros(labels.size, dtype=np.intp)
        counts = np.bincount(labels, minlength=n_classes).astype(float)[None, :]
        root = TreeNode(class_counts=counts[0], depth=0)
        level = [(root, frozenset())]
        depth = 0
        while True:
            sizes = counts.sum(axis=1)
            if transformer is not None and depth > 0:
                # each node's records in ascending order, as a depth-first
                # build hands them down
                by_node = rows[np.argsort(owner, kind="stable")]
                bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
                for s, (_, used) in enumerate(level):
                    own = by_node[bounds[s] : bounds[s + 1]]
                    out = self._transform(
                        transformer, raw[own], labels[own], intervals[own], used
                    )
                    intervals[own] = out
                    keys[:, own] = (out * n_classes + labels[own, None]).T
            if self.max_depth is not None and depth >= self.max_depth:
                break
            grow = (sizes >= self.min_records_split) & (
                np.count_nonzero(counts, axis=1) > 1
            )
            candidates = np.flatnonzero(grow)
            if not candidates.size:
                break
            if candidates.size < len(level):
                keep = grow[owner]
                rows, owner = rows[keep], (np.cumsum(grow) - 1)[owner[keep]]
                sizes, counts = sizes[candidates], counts[candidates]
            best, attribute, boundary, left = self._best_splits(
                keys, rows, owner, candidates.size
            )
            n_left = left.sum(axis=1)
            split = (
                (attribute >= 0)
                & (impurity(counts, sizes) - best > threshold)
                & (n_left > 0)
                & (n_left < sizes)
            )
            if not split.any():
                break
            if not split.all():
                keep = split[owner]
                rows, owner = rows[keep], owner[keep]
            # each record moves to its node's left (2r) or right (2r + 1)
            # child, r counting the split nodes in order
            limit = (boundary + 1) * n_classes
            # flat positions in `keys` of each record's split attribute
            position = (attribute * labels.size)[owner] + rows
            owner = 2 * (np.cumsum(split) - 1)[owner] + (
                keys.take(position) >= limit[owner]
            )
            left = left[split]
            counts = np.stack((left, counts[split] - left), axis=1).reshape(
                -1, n_classes
            )
            depth += 1
            parents, level = level, []
            for i, c in enumerate(np.flatnonzero(split)):
                node, used = parents[candidates[c]]
                j, k = int(attribute[c]), int(boundary[c])
                node.attribute_index = j
                node.threshold = float(self.partitions[j].edges[k + 1])
                node.left = TreeNode(class_counts=counts[2 * i], depth=depth)
                node.right = TreeNode(class_counts=counts[2 * i + 1], depth=depth)
                level += [(node.left, used | {j}), (node.right, used | {j})]
        return root

    def _best_splits(self, keys, rows, owner, n_nodes: int) -> tuple:
        """Each node's best split: ``(impurity, attribute, boundary, left)``.

        Record ``rows[i]`` sits at node ``owner[i]``, and ``keys[j, r]``
        is record ``r``'s interval on attribute ``j`` times the class
        count, plus its class.  Per chunk of nodes and attribute, one
        ``np.bincount`` builds every node's ``(m, C)`` table and one
        :func:`split_impurities` call scores them.  ``argmin`` takes each
        node's first minimum, and a later attribute wins only when
        strictly lower, so ties break as a node-by-node search breaks
        them.  ``left`` holds the class counts left of each node's best
        boundary.  A node with no attribute of two or more intervals
        keeps attribute ``-1``.
        """
        n_classes = self.n_classes_
        best = np.full(n_nodes, np.inf)
        attribute = np.full(n_nodes, -1)
        boundary = np.full(n_nodes, -1)
        left = np.zeros((n_nodes, n_classes))
        searched = [
            (j, partition.n_intervals)
            for j, partition in enumerate(self.partitions)
            if partition.n_intervals >= 2
        ]
        if not searched:
            return best, attribute, boundary, left
        per_chunk = max(
            1, _CHUNK_CELLS // (max(m for _, m in searched) * n_classes)
        )
        starts = [0, owner.size]
        if per_chunk < n_nodes:
            # a chunk's records must be one slice: order them by node
            order = np.argsort(owner, kind="stable")
            rows, owner = rows[order], owner[order]
            starts = np.searchsorted(owner, np.arange(0, n_nodes, per_chunk))
            starts = np.append(starts, owner.size)
        for chunk, a in enumerate(range(0, n_nodes, per_chunk)):
            b = min(a + per_chunk, n_nodes)
            part = slice(starts[chunk], starts[chunk + 1])
            chunk_rows = rows[part]
            local = owner[part] - a
            offsets: dict = {}  # intervals -> each record's node offset
            tables = []
            for j, m in searched:
                if b - a == 1 and chunk_rows.size == keys.shape[1]:
                    flat = keys[j]  # the root holds every record, in order
                else:
                    flat = keys[j, chunk_rows]
                if b - a > 1:
                    if m not in offsets:
                        offsets[m] = local * (m * n_classes)
                    flat += offsets[m]
                table = np.bincount(flat, minlength=(b - a) * m * n_classes)
                table = table.reshape(b - a, m, n_classes)
                tables.append(table)
                scores = split_impurities(table, self.criterion)
                k = scores.argmin(axis=1)
                score = scores[np.arange(b - a), k]
                better = score < best[a:b]
                best[a:b][better] = score[better]
                attribute[a:b][better] = j
                boundary[a:b][better] = k[better]
            for (j, _), table in zip(searched, tables):
                won = np.flatnonzero(attribute[a:b] == j)
                cumulative = np.cumsum(table[won], axis=1)
                left[a + won] = cumulative[np.arange(won.size), boundary[a + won]]
        return best, attribute, boundary, left

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def prune(self, values, labels) -> int:
        """Reduced-error pruning against a held-out set.

        Bottom-up: an internal node collapses to a leaf whenever the leaf
        makes no more validation errors than its subtree on the records
        routed to it.  Nodes that see no validation records collapse too
        (there is no evidence to keep them).

        Returns the number of nodes removed.  In the privacy pipeline the
        "held-out set" is a slice of the same corrected training records —
        the server never holds clean data — which still regularizes the
        record-level correction noise effectively.
        """
        root = self._check_fitted()
        values = np.asarray(values, dtype=float)
        labels = np.asarray(labels, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != len(self.partitions):
            raise ValidationError(
                f"values must have shape (n, {len(self.partitions)}), "
                f"got {values.shape}"
            )
        if labels.shape != (values.shape[0],):
            raise ValidationError("labels length must match values rows")
        before = self.n_nodes

        def walk(node: TreeNode, idx: np.ndarray) -> int:
            leaf_errors = int((labels[idx] != node.prediction).sum())
            if node.is_leaf:
                return leaf_errors
            mask = values[idx, node.attribute_index] < node.threshold
            subtree_errors = walk(node.left, idx[mask]) + walk(node.right, idx[~mask])
            if leaf_errors <= subtree_errors:
                node.left = None
                node.right = None
                node.attribute_index = -1
                node.threshold = float("nan")
                return leaf_errors
            return subtree_errors

        walk(root, np.arange(values.shape[0]))
        return before - self.n_nodes

    # ------------------------------------------------------------------
    # Prediction and inspection
    # ------------------------------------------------------------------
    def _check_fitted(self) -> TreeNode:
        if self.root_ is None:
            raise NotFittedError("this tree has not been fitted yet")
        return self.root_

    def predict(self, values) -> np.ndarray:
        """Predict class labels for a raw ``(n, d)`` value matrix."""
        root = self._check_fitted()
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.partitions):
            raise ValidationError(
                f"values must have shape (n, {len(self.partitions)}), "
                f"got {values.shape}"
            )
        out = np.empty(values.shape[0], dtype=np.int64)
        stack = [(root, np.arange(values.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.prediction
                continue
            left_mask = values[idx, node.attribute_index] < node.threshold
            stack.append((node.left, idx[left_mask]))
            stack.append((node.right, idx[~left_mask]))
        return out

    def score(self, values, labels) -> float:
        """Classification accuracy on ``(values, labels)``."""
        labels = np.asarray(labels, dtype=np.int64)
        return float((self.predict(values) == labels).mean())

    @property
    def n_nodes(self) -> int:
        """Total node count of the fitted tree."""
        root = self._check_fitted()
        count = 0
        stack = [root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return count

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a lone leaf)."""
        root = self._check_fitted()
        best = 0
        stack = [(root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            if not node.is_leaf:
                stack.extend(((node.left, d + 1), (node.right, d + 1)))
        return best

    def identical_to(self, other: "DecisionTreeClassifier") -> bool:
        """Structural bit-identity with another fitted tree.

        True only when the two trees share the same attribute grids and
        every node matches exactly: same split attribute, bitwise-equal
        threshold, and identical class counts (hence identical leaf
        predictions).  The equality the service-vs-offline training
        parity tests and ``bench_e22`` assert.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.core import Partition
        >>> x = np.array([[0.1], [0.9]])
        >>> y = np.array([0, 1])
        >>> a = DecisionTreeClassifier([Partition.uniform(0, 1, 4)]).fit(x, y)
        >>> b = DecisionTreeClassifier([Partition.uniform(0, 1, 4)]).fit(x, y)
        >>> a.identical_to(b)
        True
        """
        root_a = self._check_fitted()
        if not isinstance(other, DecisionTreeClassifier):
            return False
        root_b = other.root_
        if root_b is None:  # an unfitted tree is identical to nothing
            return False
        if len(self.partitions) != len(other.partitions):
            return False
        if any(
            not np.array_equal(pa.edges, pb.edges)
            for pa, pb in zip(self.partitions, other.partitions)
        ):
            return False
        if self.n_classes_ != other.n_classes_:
            return False
        stack = [(root_a, root_b)]
        while stack:
            node_a, node_b = stack.pop()
            if node_a.is_leaf != node_b.is_leaf:
                return False
            if not np.array_equal(node_a.class_counts, node_b.class_counts):
                return False
            if node_a.is_leaf:
                continue
            if node_a.attribute_index != node_b.attribute_index:
                return False
            if node_a.threshold != node_b.threshold:
                return False
            stack.append((node_a.left, node_b.left))
            stack.append((node_a.right, node_b.right))
        return True

    def export_text(self, *, max_depth: int = 6) -> str:
        """Human-readable rendering of the tree (truncated at ``max_depth``)."""
        root = self._check_fitted()
        lines: list[str] = []

        def walk(node: TreeNode, prefix: str) -> None:
            if node.is_leaf or node.depth >= max_depth:
                counts = node.class_counts.astype(int).tolist()
                lines.append(f"{prefix}predict {node.prediction} {counts}")
                return
            name = self.attribute_names[node.attribute_index]
            lines.append(f"{prefix}{name} < {node.threshold:g}?")
            walk(node.left, prefix + "|  yes: ")
            walk(node.right, prefix + "|  no:  ")

        walk(root, "")
        return "\n".join(lines)
