"""The aggregation service: sharded ingestion + warm-started estimation.

:class:`AggregationService` is the server-shaped face of the paper's
deployment: N ingestion workers accumulate randomized disclosures into
:class:`~repro.service.shards.ShardSet` partials, and ``estimate()``
merges the partials in O(shards x bins) and refreshes the attribute's
distribution with warm-started Bayes sweeps on one shared
:class:`~repro.core.engine.ReconstructionEngine` (one
:class:`~repro.core.engine.KernelCache` across all attributes).

The estimates it serves are **bit-identical** to feeding the same
disclosures through a single-stream
:class:`~repro.core.streaming.StreamingReconstructor` and refreshing at
the same points — sharding changes the ingestion topology, never the
math (``tests/test_service.py`` pins this at several shard counts).

Snapshots round-trip through :mod:`repro.serialize` (kind
``"aggregation_service"``): schema, engine config, merged partials, and
the carried warm-start estimates, so a restarted server resumes with
bit-identical estimates.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.engine import (
    EngineConfig,
    KernelCache,
    ReconstructionEngine,
    ReconstructionResult,
    config_property,
)
from repro.core.partition import Partition
from repro.core.privacy import NOISE_KINDS, noise_for_privacy
from repro.exceptions import SerializationError, ValidationError
from repro.service.shards import AttributeSpec, ShardSet
from repro.utils.validation import check_counts


class _AttributeState:
    """Per-attribute serving state: kernel, grid, and carried estimate."""

    __slots__ = ("spec", "y_partition", "kernel", "theta")

    def __init__(self, spec, y_partition, kernel, theta) -> None:
        self.spec = spec
        self.y_partition = y_partition
        self.kernel = kernel
        self.theta = theta


class AggregationService:
    """Sharded multi-attribute aggregation with warm-started estimates.

    Parameters
    ----------
    attributes:
        Iterable of :class:`~repro.service.AttributeSpec` (or
        ``(name, x_partition, randomizer)`` triples), one per collected
        attribute.  Names must be unique.
    n_shards:
        Number of ingestion shards (see
        :class:`~repro.service.shards.ShardSet`).
    classes:
        Number of class labels (0 = class-unaware).  With
        ``classes >= 1`` batches may carry a class column, as the
        paper's ByClass/Local training needs (see
        :class:`~repro.service.training.TrainingService`).  Labeled and
        unlabeled records bin into the same histograms; the shards count
        records per class (:meth:`n_seen_by_class`).
    max_iterations / tol / stopping / transition_method / coverage:
        Engine settings, exactly as on
        :class:`~repro.core.streaming.StreamingReconstructor`.
    kernel_cache:
        Optionally share a kernel cache with other services or
        reconstructors over the same grids.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import AggregationService, AttributeSpec
    >>> noise = UniformRandomizer(half_width=0.2)
    >>> service = AggregationService(
    ...     [AttributeSpec("opinion", Partition.uniform(0, 1, 10), noise)],
    ...     n_shards=2,
    ... )
    >>> rng = np.random.default_rng(0)
    >>> x = rng.uniform(0.3, 0.7, size=1000)
    >>> service.ingest({"opinion": noise.randomize(x, seed=rng)})
    1000
    >>> result = service.estimate("opinion")
    >>> bool(result.distribution.probs[4] > 0.1)
    True
    """

    def __init__(
        self,
        attributes,
        *,
        n_shards: int = 1,
        classes: int = 0,
        max_iterations: int = 500,
        tol: float = 1e-3,
        stopping: str = "chi2",
        transition_method: str = "integrated",
        coverage: float = 1.0 - 1e-9,
        kernel_cache: KernelCache | None = None,
    ) -> None:
        config = EngineConfig(
            max_iterations=max_iterations,
            tol=tol,
            stopping=stopping,
            transition_method=transition_method,
            coverage=coverage,
        )
        self._engine = ReconstructionEngine(config, kernel_cache=kernel_cache)
        self._states: dict = {}
        for spec in attributes:
            if not isinstance(spec, AttributeSpec):
                spec = AttributeSpec(*spec)
            if spec.name in self._states:
                raise ValidationError(f"duplicate attribute name {spec.name!r}")
            y_partition, kernel = self._engine.kernel_for(
                spec.x_partition, spec.randomizer
            )
            m = spec.x_partition.n_intervals
            self._states[spec.name] = _AttributeState(
                spec, y_partition, kernel, np.full(m, 1.0 / m)
            )
        if not self._states:
            raise ValidationError("the service needs at least one attribute")
        self._shards = ShardSet(
            {name: state.y_partition for name, state in self._states.items()},
            n_shards,
            n_classes=int(classes),
        )
        # estimate() mutates the carried theta; refreshes are serialized
        # so concurrent queries cannot interleave a warm start.
        self._estimate_lock = threading.Lock()

    max_iterations = config_property("max_iterations", engine_attr="_engine")
    tol = config_property("tol", engine_attr="_engine")
    stopping = config_property("stopping", engine_attr="_engine")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple:
        """Collected attribute names, in schema order."""
        return tuple(self._states)

    @property
    def shards(self) -> ShardSet:
        """The ingestion shard set (for one-worker-per-shard deployments)."""
        return self._shards

    @property
    def engine(self) -> ReconstructionEngine:
        """The shared reconstruction engine (one kernel cache for all)."""
        return self._engine

    @property
    def n_shards(self) -> int:
        return self._shards.n_shards

    @property
    def classes(self) -> int:
        """Class labels the shards count records by (0 = class-unaware)."""
        return self._shards.n_classes

    def spec(self, name: str) -> AttributeSpec:
        """The :class:`AttributeSpec` registered under ``name``."""
        return self._state(name).spec

    def n_seen(self, name: str | None = None):
        """Records absorbed for one attribute, or ``{name: n}`` for all."""
        if name is not None:
            self._state(name)
        return self._shards.n_seen(name)

    def n_seen_by_class(self, name: str) -> dict:
        """Per-class records absorbed for ``name``.

        Returns ``{"unlabeled": n, "0": n, ...}`` — one entry for
        unlabeled records plus one per class label (JSON-friendly
        string keys; the HTTP ``/stats`` route and the CLI summaries
        serve this verbatim).  Records a coordinator holds through
        :meth:`replace_partial` count as unlabeled.
        """
        self._state(name)
        layout = self._shards.layout
        _, seen = self._shards.merge(layout.slice_of(name))
        keys = ["unlabeled", *map(str, range(self.classes))]
        return dict(zip(keys, seen[:, layout.index_of(name)].tolist()))

    def export_partial(self) -> dict:
        """Merged partials for every attribute: the sync unit.

        ``{name: (1, bins) counts}`` — the complete sufficient
        statistic of what the estimates read (partials are mergeable,
        so the merged histograms carry the whole state), in exactly the
        shape :func:`repro.service.wire.encode_partial` ships upstream
        and :meth:`replace_partial` absorbs on the coordinator.  Built
        from one locked read per shard.
        """
        counts, _ = self._shards.merge()
        layout = self._shards.layout
        return {name: counts[None, layout.slice_of(name)] for name in self._states}

    def replace_partial(self, slot: int, partials: dict) -> int:
        """Replace shard ``slot`` with one worker's cumulative partials.

        The coordinator side of cluster sync: worker ``slot``'s
        dedicated shard is cleared and refilled with the pushed
        ``{name: (1, bins) counts}`` mapping (see :meth:`export_partial`;
        the ``(classes + 1, bins)`` rows older workers send are summed,
        see :meth:`~repro.service.shards.ShardSet.replace_slot`).
        Because each sync carries the
        worker's *cumulative* merged counts, the replace is idempotent
        — a retried or duplicated push can never double-count — and the
        merged union over all slots stays bit-identical to a
        single-process service fed the same records.  The slot's counts
        and counters change in one locked write, so readers that skip
        the estimate lock (:meth:`n_seen`, :meth:`export_partial`,
        :meth:`snapshot`) see the old slot or the new one, never an
        empty one.  Holds the estimate lock, so replacements and
        refreshes are serialized.  Returns the records now held in the
        slot.
        """
        with self._estimate_lock:
            return self._shards.replace_slot(slot, partials)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def ingest(self, batch, *, shard: int | None = None, classes=None) -> int:
        """Absorb ``{attribute: randomized values}``; return records added.

        O(batch) work: each attribute's values are located on its
        noise-expanded grid and all attributes of the batch are binned
        in one fused ``np.bincount``, then added to the routed shard's
        counts buffer under its lock (see :mod:`repro.service.shards`).
        ``shard`` pins the batch to a specific shard
        (one-worker-per-shard ingestion); otherwise batches round-robin.
        ``classes`` — one integer label per record, shared by every
        column — counts the records per class (requires a service built
        with ``classes >= 1``).
        """
        return self._shards.ingest(batch, shard=shard, classes=classes)

    def prepare(self, batch, classes=None):
        """Locate a batch into fused flat bin indices, outside any lock.

        The pure half of ingestion, exposed so front ends (e.g. the
        columnar HTTP fast path) can decode + locate per request thread
        and hand the :class:`~repro.service.shards.PreparedBatch` to
        :meth:`ingest_prepared`.
        """
        return self._shards.prepare(batch, classes)

    def ingest_prepared(self, prepared, *, shard: int | None = None) -> int:
        """Absorb a batch pre-located by :meth:`prepare`."""
        return self._shards.ingest_prepared(prepared, shard=shard)

    def quantize(self, batch) -> dict:
        """Locate a value batch into narrow int8/int16 bin-index columns.

        The client half of the quantized wire path (see
        :meth:`~repro.service.shards.ColumnLayout.quantize`): the
        returned ``{attribute: indices}`` mapping feeds
        :func:`~repro.service.wire.encode_quantized`, and ingesting the
        quantized stream yields estimates bit-identical to ingesting
        the float values themselves.

        Examples
        --------
        >>> from repro.core import Partition, UniformRandomizer
        >>> from repro.service import AggregationService, AttributeSpec
        >>> service = AggregationService([AttributeSpec(
        ...     "age", Partition.uniform(0, 1, 4),
        ...     UniformRandomizer(half_width=0.5))])
        >>> service.quantize({"age": [0.05, 0.95]})["age"].dtype.name
        'int8'
        """
        return self._shards.layout.quantize(batch)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def estimate(self, name: str, *, warn: bool = True) -> ReconstructionResult:
        """Current estimate of ``name``'s original distribution.

        Merges the shard partials in O(shards x bins) and runs Bayes
        sweeps warm-started from the previous refresh — bit-identical to
        a single-stream
        :class:`~repro.core.streaming.StreamingReconstructor` fed the
        same disclosures and refreshed at the same points.

        ``warn=False`` suppresses the
        :class:`~repro.exceptions.ConvergenceWarning` on cap-hit (the
        HTTP front end reports ``converged`` in the payload instead —
        and per-request warning-filter toggling is not thread-safe).
        """
        state = self._state(name)
        # The merge happens under the estimate lock too: merging outside
        # would let two concurrent refreshes pair a stale histogram with
        # a newer warm start, breaking the single-stream equivalence.
        with self._estimate_lock:
            counts, seen = self._shards.merged(name)
            if seen == 0:
                raise ValidationError(
                    f"no data for attribute {name!r}: ingest() before estimate()"
                )
            result, state.theta = self._engine.estimate_counts(
                counts, state.kernel, state.theta, state.spec.x_partition,
                _stacklevel=2, warn=warn,
            )
        return result

    def estimate_all(self, *, warn: bool = True) -> dict:
        """``{name: result}`` for every attribute that has data.

        Attributes with no ingested records are skipped (an empty
        service raises, matching :meth:`estimate`).
        """
        results = {}
        for name in self._states:
            if self._shards.n_seen(name):
                results[name] = self.estimate(name, warn=warn)
        if not results:
            raise ValidationError("no data yet: ingest() before estimate_all()")
        return results

    def reset(self) -> "AggregationService":
        """Forget all absorbed data and the warm-start estimates.

        Holds the estimate lock for the whole wipe so a concurrent
        :meth:`estimate` never observes cleared shards paired with a
        half-reset warm start.
        """
        with self._estimate_lock:
            self._shards.clear()
            for state in self._states.values():
                m = state.spec.x_partition.n_intervals
                state.theta = np.full(m, 1.0 / m)
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able snapshot of schema, config, partials, and estimates.

        Shard partials are stored *merged* — the per-shard layout is an
        ingestion topology, not state (partials are mergeable, so the
        merged histogram is the complete sufficient statistic).  Class-
        aware services also store each attribute's records per class
        (``n_seen_by_class``, unlabeled first).  Counts and counters
        come from one read per shard, so they always agree.  A service
        restored from the snapshot serves bit-identical estimates and
        keeps ingesting where this one left off.
        """
        from repro.serialize import FORMAT_VERSION, to_jsonable

        config = self._engine.config
        layout = self._shards.layout
        counts, seen = self._shards.merge()
        attributes = []
        state_section = {}
        for name, state in self._states.items():
            attributes.append(
                {
                    "name": name,
                    "edges": state.spec.x_partition.edges.tolist(),
                    "randomizer": to_jsonable(state.spec.randomizer),
                }
            )
            by_class = seen[:, layout.index_of(name)]
            saved = {
                "y_counts": counts[layout.slice_of(name)].tolist(),
                "n_seen": int(by_class.sum()),
                "theta": state.theta.tolist(),
            }
            if self.classes:
                saved["n_seen_by_class"] = by_class.tolist()
            state_section[name] = saved
        return {
            "kind": "aggregation_service",
            "version": FORMAT_VERSION,
            "config": {
                "max_iterations": config.max_iterations,
                "tol": config.tol,
                "stopping": config.stopping,
                "transition_method": config.transition_method,
                "coverage": config.coverage,
            },
            "n_shards": self._shards.n_shards,
            "classes": self.classes,
            "attributes": attributes,
            "state": state_section,
        }

    @classmethod
    def restore(cls, payload: dict) -> "AggregationService":
        """Rebuild a service from :meth:`snapshot` output.

        The merged partials land in shard 0 — merge-equivalent to the
        saved state — and the warm-start estimates are carried over, so
        the first refresh after a restart is bit-identical to the
        refresh the saved server would have produced.  Snapshot files
        are outside input: a missing or malformed field, and counts,
        record counts and estimates that could not have been saved,
        raise :class:`~repro.exceptions.SerializationError`.
        """
        from repro.serialize import from_jsonable

        try:
            config = payload["config"]
            classes = payload.get("classes", 0)
            if not _is_json_int(classes) or classes < 0:
                raise SerializationError(
                    "malformed aggregation_service snapshot: classes must be "
                    f"a non-negative integer, got {classes!r}"
                )
            service = cls(
                [
                    AttributeSpec(
                        attr["name"],
                        Partition(_snapshot_array(attr["edges"], "snapshot edges")),
                        from_jsonable(attr["randomizer"]),
                    )
                    for attr in payload["attributes"]
                ],
                n_shards=payload["n_shards"],
                classes=classes,
                **config,
            )
            layout = service._shards.layout
            counts = np.zeros(layout.total_bins)
            seen = np.zeros((classes + 1, len(layout.names)), dtype=np.int64)
            for name, saved in payload["state"].items():
                state = service._state(name)
                y_counts, by_class = _snapshot_counts(
                    name, saved, classes, state.y_partition.n_intervals
                )
                counts[layout.slice_of(name)] = y_counts
                seen[:, layout.index_of(name)] = by_class
                theta = _snapshot_array(
                    saved["theta"],
                    f"snapshot estimate for {name!r}",
                    (state.spec.x_partition.n_intervals,),
                )
                if not (np.isfinite(theta).all() and theta.min() >= 0.0
                        and theta.sum() > 0.0):
                    raise SerializationError(
                        f"snapshot estimate for {name!r} must be finite and "
                        "non-negative with a positive sum"
                    )
                state.theta = theta
            service._shards.absorb_merged(counts, seen)
        except SerializationError:
            raise
        except ValidationError as exc:
            # the nested checks' messages say what is wrong; keep them
            raise SerializationError(str(exc)) from exc
        except (
            AttributeError, KeyError, TypeError, ValueError, OverflowError
        ) as exc:
            raise SerializationError(
                f"malformed aggregation_service snapshot: {exc}"
            ) from exc
        return service

    def save(self, path) -> None:
        """Persist the snapshot as JSON (see :func:`repro.serialize.save`)."""
        from repro import serialize

        serialize.save(self, path)

    @classmethod
    def load(cls, path) -> "AggregationService":
        """Restore a service saved with :meth:`save`."""
        from repro import serialize

        service = serialize.load(path)
        if not isinstance(service, cls):
            raise ValidationError(
                f"{str(path)!r} does not hold an aggregation_service snapshot"
            )
        return service

    # ------------------------------------------------------------------
    def _state(self, name: str) -> _AttributeState:
        try:
            return self._states[name]
        except KeyError:
            raise ValidationError(
                f"unknown attribute {name!r}; the service collects "
                f"{list(self._states)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AggregationService(attributes={len(self._states)}, "
            f"n_shards={self._shards.n_shards}, "
            f"records={sum(self._shards.n_seen().values())})"
        )


def _is_json_int(value) -> bool:
    """``value`` is an integer, and not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _snapshot_array(value, what: str, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float array of ``shape``, else a SerializationError.

    The one check of a snapshot's numeric fields: every entry must be a
    JSON number, so strings such as ``"3"`` and booleans are rejected,
    not coerced.
    """
    leaves = np.asarray(value, dtype=object)
    for leaf in leaves.flat:
        if not (_is_json_int(leaf) or isinstance(leaf, float)):
            raise SerializationError(f"{what} are not numeric: got {leaf!r}")
    array = leaves.astype(float)
    if shape is not None and array.shape != shape:
        raise SerializationError(
            f"{what} have shape {array.shape}; expected {shape}"
        )
    return array


def _snapshot_counts(name: str, saved: dict, classes: int, n_bins: int) -> tuple:
    """One attribute's validated ``(counts, n_seen_by_class)`` from a snapshot.

    Snapshots store one histogram plus, when class-aware, the records
    per class (``n_seen_by_class``, unlabeled first).  Class-aware
    snapshots without that key predate it: they store one histogram row
    per class block (unlabeled, then one per class), which sum to the
    histogram, and each row's total is that block's records.  Every
    count must pass :func:`~repro.utils.validation.check_counts`, and
    the counts, ``n_seen`` and ``n_seen_by_class`` must agree; anything
    else raises a :class:`~repro.exceptions.SerializationError`.
    """
    blocks = classes > 0 and "n_seen_by_class" not in saved
    what = f"snapshot counts for {name!r}" + (" (class blocks)" if blocks else "")
    rows = _snapshot_array(
        saved["y_counts"] if blocks else [saved["y_counts"]],
        what,
        (classes + 1 if blocks else 1, n_bins),
    )
    check_counts(rows, what, error=SerializationError)
    by_class = rows.sum(axis=1)
    if classes and not blocks:
        what = f"snapshot n_seen_by_class for {name!r}"
        by_class = _snapshot_array(saved["n_seen_by_class"], what, (classes + 1,))
        check_counts(by_class, what, error=SerializationError)
    absorbed = rows.sum()
    n_seen = _snapshot_array(saved["n_seen"], f"snapshot n_seen for {name!r}", ())
    if n_seen != absorbed or by_class.sum() != absorbed:
        raise SerializationError(
            f"snapshot counts for {name!r} hold {absorbed:.0f} record(s) but "
            f"n_seen claims {saved['n_seen']!r} and n_seen_by_class "
            f"{by_class.sum():.0f}"
        )
    return rows.sum(axis=0), by_class.astype(np.int64)


def service_from_spec(spec: dict) -> AggregationService:
    """Build a service from a plain-dict deployment spec (``ppdm serve``).

    The spec names each attribute's domain and privacy target; noise is
    sized with :func:`repro.core.privacy.noise_for_privacy`:

    .. code-block:: python

        {
          "shards": 4,                      # optional, default 1
          "classes": 2,                     # optional: class-aware shards
          "intervals": 24,                  # optional global default
          "attributes": [
            {"name": "age", "low": 20, "high": 80,
             "noise": "uniform",            # or "gaussian"
             "privacy": 1.0,                # of the domain span
             "confidence": 0.95,            # optional
             "intervals": 24},              # optional per-attribute
          ],
        }

    Examples
    --------
    >>> from repro.service import service_from_spec
    >>> service = service_from_spec({
    ...     "shards": 2,
    ...     "attributes": [
    ...         {"name": "age", "low": 20, "high": 80,
    ...          "noise": "uniform", "privacy": 1.0},
    ...     ],
    ... })
    >>> service.attributes, service.n_shards
    (('age',), 2)
    """
    if not isinstance(spec, dict):
        raise ValidationError("service spec must be a dict")
    attributes = spec.get("attributes")
    if not attributes:
        raise ValidationError("service spec needs a non-empty 'attributes' list")
    default_intervals = int(spec.get("intervals", 24))
    specs = []
    for attr in attributes:
        try:
            name = attr["name"]
            low, high = float(attr["low"]), float(attr["high"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed attribute entry {attr!r}: {exc}"
            ) from exc
        kind = attr.get("noise", "uniform")
        if kind not in NOISE_KINDS:
            raise ValidationError(
                f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}"
            )
        partition = Partition.uniform(
            low, high, int(attr.get("intervals", default_intervals))
        )
        randomizer = noise_for_privacy(
            kind,
            float(attr.get("privacy", 1.0)),
            high - low,
            float(attr.get("confidence", 0.95)),
        )
        specs.append(AttributeSpec(name, partition, randomizer))
    return AggregationService(
        specs,
        n_shards=spec.get("shards", 1),
        classes=int(spec.get("classes", 0)),
    )
