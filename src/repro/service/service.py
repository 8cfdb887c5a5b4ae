"""The aggregation service: sharded ingestion + warm-started estimation.

:class:`AggregationService` is the server-shaped face of the paper's
deployment: N ingestion workers accumulate randomized disclosures into
:class:`~repro.service.shards.ShardSet` partials, and ``estimate()``
merges the partials in O(shards x bins) and refreshes the attribute's
distribution with warm-started Bayes sweeps on one shared
:class:`~repro.core.engine.ReconstructionEngine` (one
:class:`~repro.core.engine.KernelCache` across all attributes).  The
schema lives in one :class:`~repro.service.shards.Domain`, which every
batch is checked against once; beside it the service keeps only each
attribute's kernel and carried warm start, by name.

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
from repro.service.shards import AttributeSpec, Domain, ShardSet
from repro.utils.validation import check_counts, check_json_number


class AggregationService:
    """Sharded multi-attribute aggregation with warm-started estimates.

    Parameters
    ----------
    attributes:
        Iterable of :class:`~repro.service.AttributeSpec` (or
        ``(name, x_partition, randomizer)`` triples), one per collected
        attribute, from which the service builds its
        :class:`~repro.service.shards.Domain`.  Names must be unique.
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
        self._domain = Domain(attributes, classes=classes, coverage=config.coverage)
        self._kernels: dict = {}
        for name in self._domain.names:
            spec = self._domain.spec(name)
            _, self._kernels[name] = self._engine.kernel_for(
                spec.x_partition, spec.randomizer
            )
        self._shards = ShardSet(self._domain, n_shards)
        # estimate() replaces the carried warm starts; refreshes are
        # serialized so concurrent queries cannot interleave a warm start.
        self._estimate_lock = threading.Lock()
        self._thetas = self._uniform_thetas()

    max_iterations = config_property("max_iterations", engine_attr="_engine")
    tol = config_property("tol", engine_attr="_engine")
    stopping = config_property("stopping", engine_attr="_engine")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple:
        """Collected attribute names, in schema order."""
        return self._domain.names

    @property
    def domain(self) -> Domain:
        """The schema: specs, noise-expanded grids, and the batch check."""
        return self._domain

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
        return self._domain.classes

    def spec(self, name: str) -> AttributeSpec:
        """The :class:`AttributeSpec` registered under ``name``."""
        return self._domain.spec(name)

    def n_seen(self, name: str | None = None):
        """Records absorbed for one attribute, or ``{name: n}`` for all."""
        return self._shards.n_seen(name)

    def n_seen_by_class(self, name: str) -> dict:
        """Per-class records absorbed for ``name``.

        Returns ``{"unlabeled": n, "0": n, ...}`` — one entry for
        unlabeled records plus one per class label (JSON-friendly
        string keys; the HTTP ``/stats`` route and the CLI summaries
        serve this verbatim).  Records a coordinator holds through
        :meth:`replace_partial` count as unlabeled.
        """
        _, seen = self._shards.merge(self._domain.slice_of(name))
        keys = ["unlabeled", *map(str, range(self.classes))]
        return dict(zip(keys, seen[:, self._domain.index_of(name)].tolist()))

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
        domain = self._domain
        return {name: counts[None, domain.slice_of(name)] for name in domain.names}

    def replace_partial(self, slot: int, partials: dict) -> int:
        """Replace shard ``slot`` with one worker's cumulative partials.

        The coordinator side of cluster sync: worker ``slot``'s
        dedicated shard is cleared and refilled with the pulled
        ``{name: (1, bins) counts}`` mapping (see :meth:`export_partial`;
        the ``(classes + 1, bins)`` rows older workers send are summed,
        see :meth:`~repro.service.shards.ShardSet.replace_slot`).
        Because each sync carries the
        worker's *cumulative* merged counts, the replace is idempotent
        — a retried or duplicated sync can never double-count — and the
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
        :meth:`ingest_prepared` (see
        :meth:`~repro.service.shards.Domain.prepare`).
        """
        return self._domain.prepare(batch, classes)

    def ingest_prepared(self, prepared, *, shard: int | None = None) -> int:
        """Absorb a batch pre-located by :meth:`prepare`."""
        return self._shards.ingest_prepared(prepared, shard=shard)

    def quantize(self, batch) -> dict:
        """Locate a value batch into narrow int8/int16 bin-index columns.

        The client half of the quantized wire path (see
        :meth:`~repro.service.shards.Domain.quantize`): the
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
        return self._domain.quantize(batch)

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
        x_partition = self._domain.spec(name).x_partition
        # The merge happens under the estimate lock too: merging outside
        # would let two concurrent refreshes pair a stale histogram with
        # a newer warm start, breaking the single-stream equivalence.
        with self._estimate_lock:
            counts, seen = self._shards.merged(name)
            if seen == 0:
                raise ValidationError(
                    f"no data for attribute {name!r}: ingest() before estimate()"
                )
            result, self._thetas[name] = self._engine.estimate_counts(
                counts, self._kernels[name], self._thetas[name], x_partition,
                _stacklevel=2, warn=warn,
            )
        return result

    def estimate_all(self, *, warn: bool = True) -> dict:
        """``{name: result}`` for every attribute that has data.

        Attributes with no ingested records are skipped (an empty
        service raises, matching :meth:`estimate`).
        """
        results = {}
        for name in self._domain.names:
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
            self._thetas = self._uniform_thetas()
        return self

    def _uniform_thetas(self) -> dict:
        """The uniform warm start of every attribute, by name."""
        thetas = {}
        for name in self._domain.names:
            m = self._domain.spec(name).x_partition.n_intervals
            thetas[name] = np.full(m, 1.0 / m)
        return thetas

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
        domain = self._domain
        counts, seen = self._shards.merge()
        attributes = []
        state_section = {}
        for name in domain.names:
            spec = domain.spec(name)
            attributes.append(
                {
                    "name": name,
                    "edges": spec.x_partition.edges.tolist(),
                    "randomizer": to_jsonable(spec.randomizer),
                }
            )
            by_class = seen[:, domain.index_of(name)]
            saved = {
                "y_counts": counts[domain.slice_of(name)].tolist(),
                "n_seen": int(by_class.sum()),
                "theta": self._thetas[name].tolist(),
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
            what = "malformed aggregation_service snapshot: classes"
            classes = check_json_number(
                payload.get("classes", 0), what, integer=True,
                error=SerializationError,
            )
            if classes < 0:
                raise SerializationError(f"{what} is negative: got {classes}")
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
            domain = service.domain
            counts = np.zeros(domain.total_bins)
            seen = np.zeros((classes + 1, len(domain.names)), dtype=np.int64)
            for name, saved in payload["state"].items():
                stripe = domain.slice_of(name)
                y_counts, by_class = _snapshot_counts(
                    name, saved, classes, stripe.stop - stripe.start
                )
                counts[stripe] = y_counts
                seen[:, domain.index_of(name)] = by_class
                theta = _snapshot_array(
                    saved["theta"],
                    f"snapshot estimate for {name!r}",
                    (domain.spec(name).x_partition.n_intervals,),
                )
                if not (np.isfinite(theta).all() and theta.min() >= 0.0
                        and theta.sum() > 0.0):
                    raise SerializationError(
                        f"snapshot estimate for {name!r} must be finite and "
                        "non-negative with a positive sum"
                    )
                service._thetas[name] = theta
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
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AggregationService(attributes={len(self._domain.names)}, "
            f"n_shards={self._shards.n_shards}, "
            f"records={sum(self._shards.n_seen().values())})"
        )


def _snapshot_array(value, what: str, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float array of ``shape``, else a SerializationError.

    The one check of a snapshot's numeric fields: every entry must be a
    JSON number (:func:`~repro.utils.validation.check_json_number`), so
    strings such as ``"3"`` and booleans are rejected, not coerced.
    """
    leaves = np.asarray(value, dtype=object)
    for leaf in leaves.flat:
        check_json_number(leaf, f"an entry of {what}", error=SerializationError)
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
    default_intervals = _spec_number(
        spec, "intervals", "service spec", 24, integer=True
    )
    specs = []
    for attr in attributes:
        try:
            where = f"attribute {attr['name']!r}"
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed attribute entry {attr!r}: {exc}"
            ) from exc
        low = float(_spec_number(attr, "low", where))
        high = float(_spec_number(attr, "high", where))
        kind = attr.get("noise", "uniform")
        if kind not in NOISE_KINDS:
            raise ValidationError(
                f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}"
            )
        intervals = _spec_number(
            attr, "intervals", where, default_intervals, integer=True
        )
        partition = Partition.uniform(low, high, intervals)
        randomizer = noise_for_privacy(
            kind,
            float(_spec_number(attr, "privacy", where, 1.0)),
            high - low,
            float(_spec_number(attr, "confidence", where, 0.95)),
        )
        specs.append(AttributeSpec(attr["name"], partition, randomizer))
    return AggregationService(
        specs,
        n_shards=_spec_number(spec, "shards", "service spec", 1, integer=True),
        classes=_spec_number(spec, "classes", "service spec", 0, integer=True),
    )


def _spec_number(
    section: dict, key: str, where: str, default=None, *, integer: bool = False
):
    """``section[key]`` (or ``default``) from a deployment spec, checked.

    Specs are outside input: the value must be a JSON number, and a
    non-boolean integer when ``integer``
    (:func:`~repro.utils.validation.check_json_number`); a missing
    required field or a wrong value is a ValidationError naming it.
    """
    if key not in section and default is None:
        raise ValidationError(f"{where} needs {key!r}")
    return check_json_number(
        section.get(key, default), f"{where} field {key!r}", integer=integer
    )
