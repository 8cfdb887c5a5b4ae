"""Impurity criteria for tree induction (paper §4 uses the gini index).

All functions operate on *class-count* arrays rather than label vectors, so
the split search can evaluate every candidate boundary of an attribute from
one cumulative-sum pass, and the tree builder scores every open node of a
level at once from a ``(nodes, m, C)`` stack of those arrays.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def gini(class_counts) -> float:
    """Gini impurity ``1 - sum_c p_c^2`` of one node's class counts."""
    counts = np.asarray(class_counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def entropy(class_counts) -> float:
    """Shannon entropy (bits) of one node's class counts."""
    counts = np.asarray(class_counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _gini_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Row-wise gini of a ``(..., C)`` count array with row sums ``totals``."""
    safe = np.maximum(totals, 1e-300)
    p = counts / safe[..., None]
    g = 1.0 - (p * p).sum(axis=-1)
    return np.where(totals > 0, g, 0.0)


def _entropy_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Row-wise entropy (bits) of a ``(..., C)`` count array."""
    safe = np.maximum(totals, 1e-300)
    p = counts / safe[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    h = -terms.sum(axis=-1)
    return np.where(totals > 0, h, 0.0)


_ROW_IMPURITY = {"gini": _gini_rows, "entropy": _entropy_rows}

#: impurity criteria accepted by the tree builder
CRITERIA = tuple(_ROW_IMPURITY)


def split_impurities(interval_class_counts, criterion: str = "gini") -> np.ndarray:
    """Weighted impurity of every boundary split of one attribute.

    Parameters
    ----------
    interval_class_counts:
        ``(m, C)`` matrix: rows are the attribute's intervals in order,
        columns are classes; entry ``(t, c)`` counts the node's records of
        class ``c`` whose value falls in interval ``t``.  A ``(nodes, m,
        C)`` stack scores one such matrix per node in one pass, each
        exactly as it would score alone.
    criterion:
        ``"gini"`` (the paper's choice) or ``"entropy"``.

    Returns
    -------
    numpy.ndarray of length ``m - 1`` (``(nodes, m - 1)`` for a stack):
    entry ``k`` is the size-weighted impurity of splitting "interval <= k"
    vs "interval > k".  Minimize over attributes and boundaries to choose
    the split.

    Examples
    --------
    >>> import numpy as np
    >>> counts = np.array([[4, 0], [3, 1], [0, 4]])
    >>> split_impurities(counts).round(3).tolist()
    [0.312, 0.146]
    >>> split_impurities(np.stack([counts, counts[::-1]])).shape
    (2, 2)
    """
    counts = np.asarray(interval_class_counts, dtype=float)
    if counts.ndim not in (2, 3):
        raise ValidationError(
            "interval_class_counts must be 2-D (m, C) or a 3-D (nodes, m, C) "
            f"stack, got shape {counts.shape}"
        )
    if criterion not in _ROW_IMPURITY:
        raise ValidationError(
            f"criterion must be one of {CRITERIA}, got {criterion!r}"
        )
    m = counts.shape[-2]
    if m < 2:
        return np.empty(counts.shape[:-2] + (0,))

    row_impurity = _ROW_IMPURITY[criterion]
    left = np.cumsum(counts, axis=-2)[..., :-1, :]  # (..., m-1, C)
    total = counts.sum(axis=-2)
    right = total[..., None, :] - left
    n_left = left.sum(axis=-1)
    n_right = right.sum(axis=-1)
    n = np.maximum(total.sum(axis=-1), 1e-300)
    return (
        n_left * row_impurity(left, n_left)
        + n_right * row_impurity(right, n_right)
    ) / n[..., None]
