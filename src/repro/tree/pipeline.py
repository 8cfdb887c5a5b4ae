"""The paper's training algorithms behind one estimator (paper §4.1).

Six ways to train a decision tree when providers disclose private data:

* ``original`` — train on the unperturbed data (upper baseline; no privacy),
* ``randomized`` — train directly on the perturbed values (lower baseline),
* ``global`` — reconstruct each attribute's distribution once over all
  classes, correct records, train on corrected records,
* ``byclass`` — reconstruct each attribute separately per class before
  correcting (the paper's recommended accuracy/cost tradeoff),
* ``local`` — ByClass, but reconstruction is repeated at every tree node
  on the records reaching that node (most accurate, most expensive),
* ``valueclass`` — the paper's §2 *value-class membership* alternative:
  providers disclose only the coarse interval containing each value (one
  interval per ``privacy * span`` of the domain) and the tree trains
  directly on the disclosed midpoints — no reconstruction involved.

:class:`PrivacyPreservingClassifier` wires the randomizers, reconstructor,
record correction, and the interval tree into that menu.
"""

from __future__ import annotations

import numpy as np

from repro.core.correction import correct_records
from repro.core.engine import reconstruct_problems
from repro.core.privacy import noise_for_privacy
from repro.core.randomizers import ValueClassMembership
from repro.core.reconstruction import BayesReconstructor
from repro.datasets.schema import Table
from repro.exceptions import NotFittedError, ValidationError
from repro.tree.tree import DecisionTreeClassifier
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive

#: training strategies: paper §4.1 algorithms, the §5 baselines, and the
#: §2 value-class-membership alternative
STRATEGIES = ("original", "randomized", "global", "byclass", "local", "valueclass")


def _distinct(labels) -> np.ndarray:
    """The distinct labels in ascending order, as ``np.unique`` gives them.

    ``np.unique`` imports ``numpy.ma`` on NumPy 2.4 (about 1 MB), which a
    serving process that trains would otherwise never load.
    """
    ordered = np.sort(labels)
    keep = np.ones(ordered.shape, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def build_tree(
    partitions,
    names,
    n_records: int,
    *,
    criterion: str,
    max_depth,
    min_records_split,
    min_gain: float,
) -> DecisionTreeClassifier:
    """An unfitted tree with the ``"auto"`` growth settings resolved.

    ``max_depth="auto"`` resolves to 8 and ``min_records_split="auto"``
    to 1 % of ``n_records`` (at least 10); other values pass through.
    """
    if max_depth == "auto":
        max_depth = 8
    if min_records_split == "auto":
        min_records_split = max(10, round(0.01 * n_records))
    return DecisionTreeClassifier(
        partitions,
        criterion=criterion,
        max_depth=max_depth,
        min_records_split=min_records_split,
        min_gain=min_gain,
        attribute_names=list(names),
    )


def correct_intervals(
    strategy: str, w_matrix, labels, partitions, randomizers, reconstructor
) -> tuple:
    """Reconstruct each column's distribution and correct every record.

    ``strategy="global"`` reconstructs each attribute once over all
    records, every attribute in one batched call.  Any other strategy
    (``byclass``, and the root of ``local``) reconstructs each attribute
    per class, one batched call per attribute: the classes share that
    attribute's noise kernel, so their sweeps stack into one run.
    ``randomizers[j]`` is None for a column that was not perturbed; its
    values are located on ``partitions[j]`` directly.  ``reconstructor``
    is anything :func:`~repro.core.engine.reconstruct_problems` accepts.

    Returns ``(intervals, reconstructions)``: the corrected ``(n, d)``
    interval-index matrix, and ``{column: result}`` for ``global`` or
    ``{column: {class: result}}`` otherwise.
    """
    intervals = np.empty(w_matrix.shape, dtype=np.int64)
    jobs = []  # perturbed column indices
    for j, (partition, randomizer) in enumerate(zip(partitions, randomizers)):
        if randomizer is None:
            intervals[:, j] = partition.locate(w_matrix[:, j])
        else:
            jobs.append(j)
    if strategy == "global":
        calls = [[(j, None, slice(None)) for j in jobs]]
    else:
        class_rows = [(int(c), labels == c) for c in _distinct(labels)]
        calls = [[(j, c, rows) for c, rows in class_rows] for j in jobs]
    reconstructions: dict = {}
    for call in calls:  # (column, class or None, row selector) per problem
        problems = [
            (w_matrix[rows, j], partitions[j], randomizers[j]) for j, _, rows in call
        ]
        results = reconstruct_problems(reconstructor, problems)
        for (j, c, rows), (values, _, _), result in zip(call, problems, results):
            if c is None:
                reconstructions[j] = result
            else:
                reconstructions.setdefault(j, {})[c] = result
            intervals[rows, j] = correct_records(
                values, result.distribution
            ).interval_indices
    return intervals, reconstructions


def local_refit(partitions, randomizers, reconstructor, min_records: int):
    """The Local strategy's per-node ByClass re-correction.

    Returns a ``node_transformer`` for
    :meth:`~repro.tree.tree.DecisionTreeClassifier.fit_intervals`.
    Attributes already split on along the path are skipped: routing
    truncated their randomized values at a disclosed-value threshold,
    and a convolution with wide noise cannot reproduce that cliff, so
    re-reconstructing them over-sharpens pathologically.  Their
    inherited assignments are kept instead, as are those of unperturbed
    columns and of classes with fewer than ``min_records`` records at
    the node.

    All of a node's (attribute × class) refits go out as one batched
    call: per attribute the classes share a kernel, and across nodes
    the engine's kernel cache means each attribute's kernel is built
    once per fit, not once per node.
    """

    def transform(raw, labels, intervals, used):
        out = intervals.copy()
        class_rows = [
            rows
            for c in _distinct(labels)
            for rows in [labels == c]
            if int(rows.sum()) >= min_records
        ]
        jobs = [  # (column index, class rows)
            (j, rows)
            for j, randomizer in enumerate(randomizers)
            if j not in used and randomizer is not None
            for rows in class_rows
        ]
        if not jobs:
            return out
        problems = [(raw[rows, j], partitions[j], randomizers[j]) for j, rows in jobs]
        results = reconstruct_problems(reconstructor, problems)
        for (j, rows), (values, _, _), result in zip(jobs, problems, results):
            out[rows, j] = correct_records(values, result.distribution).interval_indices
        return out

    return transform


class PrivacyPreservingClassifier:
    """Decision-tree classification over randomized data.

    Parameters
    ----------
    strategy:
        One of :data:`STRATEGIES`.
    noise:
        ``"uniform"`` or ``"gaussian"`` additive noise (ignored by
        ``original``).
    privacy:
        Privacy level as a fraction of each attribute's domain range at
        ``confidence`` (paper convention: ``1.0`` = "100 % privacy").
    confidence:
        Confidence level at which privacy is stated (paper: 0.95).
    n_intervals:
        Intervals per attribute for reconstruction grids and candidate
        split points (discrete attributes cap at one per value).
    reconstructor:
        Distribution reconstructor; defaults to the paper's
        :class:`~repro.core.reconstruction.BayesReconstructor`.
    criterion / max_depth / min_records_split / min_gain:
        Passed to the underlying tree.  ``max_depth="auto"`` resolves to 8
        and ``min_records_split="auto"`` to 1 % of the training set (at
        least 10): randomization leaves record-level noise in corrected
        values, and unbounded trees overfit it badly (the accuracy
        ablations sweep these).  Pass ``None`` for unbounded depth.
    local_min_records:
        ``local`` only: nodes whose per-class record count falls below this
        keep their inherited interval assignments instead of
        re-reconstructing (the paper's practical cutoff).
    prune_fraction:
        If positive, this fraction of the training records is held out of
        tree growth and used for reduced-error pruning (the server never
        sees clean data, so for randomized strategies the held-out slice
        consists of the same corrected records).  0 disables pruning.
    attributes:
        Attribute names to perturb; defaults to all attributes.
    seed:
        Seed / generator driving the randomization step.

    Examples
    --------
    >>> from repro import PrivacyPreservingClassifier, quest
    >>> train = quest.generate(1_500, function=1, seed=0)
    >>> test = quest.generate(500, function=1, seed=1)
    >>> clf = PrivacyPreservingClassifier(strategy="byclass", privacy=0.5, seed=2)
    >>> bool(clf.fit(train).score(test) > 0.8)
    True

    Attributes (after :meth:`fit`)
    ------------------------------
    tree_:
        The fitted :class:`~repro.tree.tree.DecisionTreeClassifier`.
    randomized_table_ / randomizers_:
        The perturbed training table and the per-attribute randomizers.
    reconstructions_:
        For ``global``: ``{attribute: ReconstructionResult}``; for
        ``byclass``/``local`` roots: ``{attribute: {class: result}}``.
    intervals_:
        For the reconstruction strategies: the corrected ``(n, d)``
        interval-index matrix produced before tree growth (diagnostics
        and equivalence testing).  For ``global``/``byclass`` this is
        exactly what the tree trained on; for ``local`` it is the root
        ByClass correction — per-node refits during growth are applied
        on top of it and are not recorded here.

    Notes
    -----
    When the reconstructor exposes ``reconstruct_batch`` (the default
    :class:`~repro.core.reconstruction.BayesReconstructor` does, via its
    :class:`~repro.core.engine.ReconstructionEngine`), the ByClass and
    Local strategies issue one batched call per attribute (respectively
    per tree node) instead of looping attribute × class, and identical
    noise kernels are built once per fit instead of once per problem.
    The results are bit-identical to the looped path.
    """

    def __init__(
        self,
        strategy: str = "byclass",
        *,
        noise: str = "uniform",
        privacy: float = 1.0,
        confidence: float = 0.95,
        n_intervals: int = 25,
        reconstructor=None,
        criterion: str = "gini",
        max_depth="auto",
        min_records_split="auto",
        min_gain: float = 0.0,
        local_min_records: int = 100,
        prune_fraction: float = 0.0,
        attributes=None,
        seed=None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        check_positive(privacy, "privacy")
        check_fraction(confidence, "confidence")
        if n_intervals < 2:
            raise ValidationError(f"n_intervals must be >= 2, got {n_intervals}")
        self.strategy = strategy
        self.noise = noise
        self.privacy = float(privacy)
        self.confidence = float(confidence)
        self.n_intervals = int(n_intervals)
        self.reconstructor = reconstructor or BayesReconstructor()
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_records_split = min_records_split
        self.min_gain = float(min_gain)
        self.local_min_records = int(local_min_records)
        if not 0.0 <= prune_fraction < 0.5:
            raise ValidationError(
                f"prune_fraction must lie in [0, 0.5), got {prune_fraction}"
            )
        self.prune_fraction = float(prune_fraction)
        self.attributes = tuple(attributes) if attributes is not None else None
        self.seed = seed

        self.tree_: DecisionTreeClassifier | None = None
        self.randomized_table_: Table | None = None
        self.randomizers_: dict = {}
        self.reconstructions_: dict = {}
        self.intervals_: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self, table: Table, *, randomized_table: Table = None, randomizers: dict = None
    ) -> "PrivacyPreservingClassifier":
        """Fit on a labelled table.

        Parameters
        ----------
        table:
            Training table with original values and class labels.
        randomized_table / randomizers:
            Optionally supply a pre-randomized copy of ``table`` (same
            attributes in the same order, same record count) plus the
            randomizers that produced it (both or neither).  The experiment
            harness uses this to compare strategies on *identical*
            randomized data.
        """
        if (randomized_table is None) != (randomizers is None):
            raise ValidationError(
                "randomized_table and randomizers must be supplied together"
            )
        if randomizers is not None:
            unknown = set(randomizers) - set(table.attribute_names)
            if unknown:
                raise ValidationError(
                    f"randomizers reference unknown attributes: {sorted(unknown)}"
                )
            if randomized_table.attribute_names != table.attribute_names:
                raise ValidationError(
                    "randomized_table attributes "
                    f"{list(randomized_table.attribute_names)} do not match "
                    f"the table's {list(table.attribute_names)}"
                )
            if randomized_table.n_records != table.n_records:
                raise ValidationError(
                    f"randomized_table has {randomized_table.n_records} "
                    f"record(s) but the table has {table.n_records}"
                )
        names = self.attributes or table.attribute_names
        self._names = tuple(table.attribute_names)
        partitions = [
            table.attribute(n).partition(self.n_intervals) for n in self._names
        ]
        self._partitions = partitions
        tree = build_tree(
            partitions,
            self._names,
            table.n_records,
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_records_split=self.min_records_split,
            min_gain=self.min_gain,
        )
        labels = table.labels
        self._fit_rng = ensure_rng(self.seed)

        if self.strategy == "original":
            self._fit_raw(tree, table.matrix(), labels)
            self.tree_ = tree
            return self

        if randomized_table is None:
            randomized_table, randomizers = self._randomize(table, names)
        self.randomized_table_ = randomized_table
        self.randomizers_ = dict(randomizers)
        w_matrix = randomized_table.matrix()

        if self.strategy in ("randomized", "valueclass"):
            self._fit_raw(tree, w_matrix, labels)
        else:
            column_randomizers = [self.randomizers_.get(n) for n in self._names]
            intervals, reconstructions = correct_intervals(
                self.strategy,
                w_matrix,
                labels,
                partitions,
                column_randomizers,
                self.reconstructor,
            )
            self.intervals_ = intervals
            self.reconstructions_ = {
                self._names[j]: result for j, result in reconstructions.items()
            }
            transformer = None
            if self.strategy == "local":
                transformer = local_refit(
                    partitions,
                    column_randomizers,
                    self.reconstructor,
                    self.local_min_records,
                )
            self._fit_corrected(tree, intervals, labels, w_matrix, transformer)
        self.tree_ = tree
        return self

    def _split_for_prune(self, n: int):
        """Shuffle indices into (grow, hold) per ``prune_fraction``."""
        if self.prune_fraction == 0.0:
            return np.arange(n), None
        order = self._fit_rng.permutation(n)
        n_hold = int(round(self.prune_fraction * n))
        if n_hold == 0 or n_hold >= n:
            return np.arange(n), None
        return order[n_hold:], order[:n_hold]

    def _fit_raw(self, tree: DecisionTreeClassifier, matrix, labels) -> None:
        """Fit (and optionally prune) on raw value rows."""
        grow, hold = self._split_for_prune(labels.size)
        tree.fit(matrix[grow], labels[grow])
        if hold is not None:
            tree.prune(matrix[hold], labels[hold])

    def _fit_corrected(
        self, tree: DecisionTreeClassifier, intervals, labels, raw, transformer
    ) -> None:
        """Fit (and optionally prune) on corrected interval rows.

        Correction ran on the full record set (reconstruction wants all
        the data); only tree growth holds out the pruning slice.
        ``transformer`` is Local's per-node refit over the ``raw``
        randomized rows, or None.
        """
        grow, hold = self._split_for_prune(labels.size)
        kwargs = {}
        if transformer is not None:
            kwargs = dict(raw_values=raw[grow], node_transformer=transformer)
        tree.fit_intervals(intervals[grow], labels[grow], **kwargs)
        if hold is not None:
            midpoint_columns = [
                partition.midpoints[intervals[hold, j]]
                for j, partition in enumerate(self._partitions)
            ]
            tree.prune(np.column_stack(midpoint_columns), labels[hold])

    def _randomize(self, table: Table, names) -> tuple:
        rng = self._fit_rng
        randomizers: dict = {}
        new_columns: dict = {}
        for name in names:
            attribute = table.attribute(name)
            if self.strategy == "valueclass":
                # §2's discretization: interval width = privacy * span, so
                # membership disclosure gives exactly the target privacy.
                n_coarse = max(1, int(round(1.0 / self.privacy)))
                randomizer = ValueClassMembership(attribute.partition(n_coarse))
            else:
                randomizer = noise_for_privacy(
                    self.noise, self.privacy, attribute.span, self.confidence
                )
            randomizers[name] = randomizer
            new_columns[name] = randomizer.randomize(table.column(name), seed=rng)
        return table.with_columns(new_columns), randomizers

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> DecisionTreeClassifier:
        if self.tree_ is None:
            raise NotFittedError("fit must be called before predict/score")
        return self.tree_

    def predict(self, table: Table) -> np.ndarray:
        """Predict class labels for an (unperturbed) test table."""
        tree = self._check_fitted()
        matrix = np.column_stack([table.column(n) for n in self._names])
        return tree.predict(matrix)

    def score(self, table: Table) -> float:
        """Classification accuracy against the table's labels."""
        return float((self.predict(table) == table.labels).mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrivacyPreservingClassifier(strategy={self.strategy!r})"
