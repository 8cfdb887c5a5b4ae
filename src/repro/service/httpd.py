"""The HTTP front end for :class:`AggregationService`.

Standard-library only (``http.server``): one ``ppdm serve`` process is a
complete collection endpoint — providers POST randomized disclosures,
analysts GET reconstructed distributions — with the sharded service
behind it.  The threading server gives each connection its own handler
thread; connections are HTTP/1.1 keep-alive, so a bulk client streams
batch after batch over one socket.  Ingestion locates and bins each
batch before taking a shard's lock, so writers hold it only for an
O(bins) add, and estimation is serialized by the service itself.

``POST /ingest`` negotiates its wire format via ``Content-Type``:

* ``application/json`` (default) — ``{"batch": {name: [values...]},
  "shard": i?, "classes": [labels...]?}``, the curl-able format,
* ``application/x-ndjson`` — many such objects, one per line,
* ``application/x-ppdm-columns`` — concatenated binary columnar frames
  (:mod:`repro.service.wire`), the zero-copy bulk fast path; version 2
  frames carry an optional class column,
* ``application/x-ppdm-baskets`` — concatenated version 4 basket frames
  (MASK-randomized transactions as varint item-id lists), routed to the
  mining tier when the server was started with ``mining=``.

Endpoints (responses are JSON unless noted):

=========================  ==================================================
``GET /healthz``           liveness + total records absorbed (+ per-worker
                           staleness on a cluster coordinator)
``GET /attributes``        the collected schema (domain, grid, noise)
``GET /stats``             per-attribute record counts (per class too on
                           a class-aware server that is not a
                           coordinator), shard and cache stats
``GET /estimate?attribute=NAME``  reconstructed distribution for ``NAME``
``GET /model?strategy=S``  last trained decision tree (``trained_tree``
                           snapshot payload)
``GET /partial``           this server's cumulative merged partials as a
                           binary sync body (``?rows=1`` appends the
                           labeled row buffer; cluster pull path)
``GET /cluster``           worker registry + staleness (coordinator only)
``GET /rules``             last mined rule set (``mined_rules`` snapshot
                           payload)
``POST /ingest``           one or many batches, wire format per Content-Type
``POST /mine``             run level-wise Apriori over the service-held
                           support counts (thresholds in the JSON body)
``POST /train``            grow a decision tree from the training buffer
``POST /snapshot``         persist to the configured snapshot path
``POST /register``         announce a worker to the coordinator
=========================  ==================================================

A server created with ``cluster=`` (see
:class:`repro.service.cluster.ClusterCoordinator`) is a *coordinator*:
it refuses direct ``/ingest`` (worker slots would be overwritten by the
next sync), pulls registered workers before ``/estimate`` and
``/train``, and reports cluster health.  Plain servers — including the
cluster's workers — serve ``GET /partial`` so their state can be pulled.

The server owns its process's durability: it auto-snapshots while it
serves, and :meth:`~ServiceHTTPServer.drain` is every serving process's
one shutdown path — shed new ingest, let the admitted bodies finish,
write once.

Errors return ``{"error": message}`` with status 400 (validation),
404 (unknown route / untrained model), 413 (body over the configured
size cap), 429 (ingest admission control rejected the body;
``Retry-After`` says when to re-send), 500 (a snapshot write failed —
the previous good snapshot survives), 501 (chunked transfer), or 503
(a cluster operation needs a worker whose pull failed and that has
never synced, the server is draining — with ``Retry-After`` — or a fault
plan injected an error).  Any 4xx leaves the connection usable
(except 413/501, which close it — the body cannot be skipped safely)
and absorbs nothing from the failing body; a 429/503 with
``Retry-After`` explicitly guarantees the batch can be re-sent
verbatim without double counting.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.privacy import privacy_of_randomizer
from repro.exceptions import (
    ClusterError,
    DecodedSizeError,
    ReproError,
    SnapshotError,
    ValidationError,
)
from repro.service.faults import FaultPlan
from repro.service.resilience import AdmissionController, persist_with_rotation
from repro.service.training import TRAINING_STRATEGIES
from repro.service.wire import (
    CONTENT_TYPE_BASKETS,
    CONTENT_TYPE_COLUMNS,
    CONTENT_TYPE_NDJSON,
    CONTENT_TYPE_PARTIAL,
    WIRE_CODEC_IDENTITY,
    _read_record,
    decompress_payload,
    iter_basket_frames,
    iter_labeled_frames,
    iter_labeled_ndjson,
    resolve_codec,
    supported_codecs,
)

__all__ = ["ServiceHTTPServer"]

#: dead handler threads are pruned from the join list this often
_REAP_INTERVAL = 64

#: default request-body cap (bytes); oversized bodies get 413 + close
_DEFAULT_MAX_BODY = 256 * 1024 * 1024

logger = logging.getLogger("repro.service.httpd")


class ServiceHTTPServer:
    """Serve an :class:`~repro.service.AggregationService` over HTTP.

    Parameters
    ----------
    service:
        The aggregation service to expose.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address`).
    snapshot_path:
        Where ``POST /snapshot``, the auto-snapshot loop and
        :meth:`drain` persist the service; ``None`` disables the
        endpoint (400) and makes :meth:`drain` write nothing.
    snapshot_interval:
        Seconds between auto-snapshots to ``snapshot_path``, from
        :meth:`serve_forever` until :meth:`drain`, :meth:`shutdown` or
        :meth:`close`; a failed one is logged and retried at the next.
    training:
        Optional :class:`~repro.service.training.TrainingService` over
        ``service``; enables ``POST /train`` / ``GET /model`` and routes
        labeled ingest bodies into the training buffer.  ``None``
        disables the endpoints (400) and labeled batches only feed the
        shards and their per-class record counters.
    cluster:
        Optional :class:`~repro.service.cluster.ClusterCoordinator` over
        ``service``; makes this server a cluster coordinator — ``POST
        /register`` comes alive, ``/estimate`` and ``/train`` pull
        registered workers first, ``/healthz`` reports per-worker
        staleness, and direct ``/ingest`` is refused.
    mining:
        Optional :class:`~repro.service.mining.MiningService`; enables
        basket ingest bodies (``application/x-ppdm-baskets``),
        ``POST /mine``, and ``GET /rules``.  ``None`` disables them
        (400).  The mining tier holds its own support counters — basket
        bodies never touch the histogram shards.
    max_body_bytes:
        Request bodies larger than this are refused with 413 before any
        byte is read (the connection closes — an unread body cannot be
        skipped safely on a keep-alive socket).
    max_inflight:
        Bound on concurrently-processing ``POST /ingest`` bodies
        (admission control).  Beyond the bound the server sheds load
        with ``429`` + ``Retry-After: retry_after`` *before* touching
        the body, so a rejected batch was never partially absorbed and
        the client re-sends it verbatim.  ``None`` (default) admits any
        number; the gauge still counts them for :meth:`drain`.
    retry_after:
        Seconds advertised in ``Retry-After`` on 429 (overload) and 503
        (draining) responses.
    faults:
        Optional :class:`~repro.service.faults.FaultPlan` (or its spec
        dict) driving deterministic chaos injection; ``None`` falls back
        to the ``PPDM_FAULT_PLAN`` environment variable, and no plan
        means no injection.  Faults fire *after* the request body is
        read (keep-alive stays in sync) and *before* any handling (an
        injected drop or 503 absorbed nothing, so re-sending is safe).
    """

    def __init__(
        self, service, host: str = "127.0.0.1", port: int = 0, *,
        snapshot_path=None, snapshot_interval: float | None = None,
        training=None, cluster=None, mining=None,
        max_body_bytes: int = _DEFAULT_MAX_BODY,
        max_inflight: int | None = None, retry_after: float = 1.0,
        faults=None,
    ) -> None:
        self.service = service
        self.training = training
        self.cluster = cluster
        self.mining = mining
        if faults is None:
            faults = FaultPlan.from_env()
        elif not isinstance(faults, FaultPlan):
            faults = FaultPlan.from_spec(faults)
        self.faults = faults
        # counts every admitted ingest body, so drain() can wait for them
        self.admission = AdmissionController(max_inflight, retry_after)
        if training is not None and training.service is not service:
            raise ValidationError(
                "the training service must wrap the served "
                "AggregationService instance"
            )
        if cluster is not None and cluster.service is not service:
            raise ValidationError(
                "the cluster coordinator must wrap the served "
                "AggregationService instance"
            )
        if max_body_bytes < 1:
            raise ValidationError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.max_body_bytes = int(max_body_bytes)
        if snapshot_interval is not None and snapshot_path is None:
            raise ValidationError("snapshot_interval needs a snapshot_path")
        if snapshot_interval is not None and not snapshot_interval > 0:
            raise ValidationError("snapshot interval must be > 0 seconds")
        self.snapshot_path = snapshot_path
        self.snapshot_interval = snapshot_interval
        self._snapshots_stop = threading.Event()
        self._snapshots: threading.Thread | None = None
        self._requests_served = 0
        self._served_lock = threading.Lock()
        self._snapshot_lock = threading.Lock()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        # Track handler threads (ThreadingHTTPServer defaults to
        # untracked daemons): server_close() then joins in-flight
        # requests, so max_requests mode and process exit can never kill
        # a response — or a snapshot write — midway.  A long-running
        # server reaps finished threads from that join list every
        # _REAP_INTERVAL requests (see reap_handler_threads) so heavy
        # traffic cannot accumulate dead-thread references.
        self._httpd.daemon_threads = False

    @property
    def address(self) -> tuple:
        """Actual ``(host, port)`` the server is bound to."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def requests_served(self) -> int:
        return self._requests_served

    def serve_forever(self, *, max_requests: int | None = None) -> None:
        """Handle requests until :meth:`shutdown` (or ``max_requests``).

        Starts the auto-snapshot loop here, never in ``__init__``: a
        cluster coordinator forks its workers in between.
        With ``max_requests`` the server accepts exactly that many
        connections (each may carry several keep-alive requests), then
        joins the handler threads and closes itself; do not also call
        :meth:`shutdown` in that mode.
        """
        if self.snapshot_interval is not None and self._snapshots is None:
            self._snapshots = threading.Thread(
                target=self._snapshot_loop, name="ppdm-snapshot", daemon=True
            )
            self._snapshots.start()
        if max_requests is None:
            # a tight poll keeps shutdown() latency low (the default
            # 0.5 s poll makes every stop feel sluggish)
            self._httpd.serve_forever(poll_interval=0.05)
        else:
            for _ in range(max_requests):
                self._httpd.handle_request()
            # joins the per-connection handler threads before returning
            self.close()

    def shutdown(self) -> None:
        """Stop a concurrent :meth:`serve_forever`; close, writing nothing."""
        self._httpd.shutdown()
        self.close()

    def close(self) -> None:
        """Close the listening socket of a server that is not serving.

        For a server whose :meth:`serve_forever` never ran (or has
        returned); :meth:`shutdown` would wait forever for a loop that
        is not there.  Stops the auto-snapshot loop without writing.
        """
        self._stop_snapshots()
        self._httpd.server_close()

    @property
    def draining(self) -> bool:
        """Is the server refusing new ingest while it shuts down?"""
        return self.admission.closed

    def drain(self) -> None:
        """Refuse new ingest, finish the admitted bodies, then write once.

        New ``POST /ingest`` bodies get ``503`` + ``Retry-After`` while
        reads keep serving until :meth:`shutdown`.  Returns once every
        admitted body is absorbed and, with a snapshot path, persisted
        (a failed write raises :class:`~repro.exceptions.SnapshotError`),
        so the snapshot holds every record the server acknowledged.
        """
        self.admission.close()
        self._stop_snapshots()
        if self.snapshot_path is not None:
            self.persist()

    def _snapshot_loop(self) -> None:
        while not self._snapshots_stop.wait(self.snapshot_interval):
            try:
                self.persist()
            except ReproError as exc:
                logger.warning("auto-snapshot failed (will retry): %s", exc)

    def _stop_snapshots(self) -> None:
        self._snapshots_stop.set()
        if self._snapshots is not None:
            self._snapshots.join()

    def reap_handler_threads(self) -> int:
        """Drop finished handler threads from the join list; return count.

        ``ThreadingHTTPServer`` keeps every non-daemon handler thread in
        a list so ``server_close()`` can join them.  Python 3.11+ prunes
        dead threads itself on every append (``socketserver._Threads``);
        on 3.10 the list is a plain ``list`` that grows by one dead
        ``Thread`` object per connection for the life of the server.
        Called automatically every ``_REAP_INTERVAL`` requests; removal
        is per-element (``list.remove``), so it never races the accept
        loop's concurrent ``append``.
        """
        threads = getattr(self._httpd, "_threads", None)
        if not isinstance(threads, list):
            # daemon-mode sentinel (_NoThreads) or a future stdlib layout
            return 0
        reaped = 0
        for thread in list(threads):
            if not thread.is_alive():
                try:
                    threads.remove(thread)
                except ValueError:  # pragma: no cover - lost a race, fine
                    continue
                reaped += 1
        return reaped

    def persist(self) -> str:
        """Save the service to the configured snapshot path (serialized).

        The single snapshot-write entry point: ``POST /snapshot``, the
        auto-snapshot loop, and :meth:`drain` all come through here, so
        two writers can never interleave on the same snapshot file.
        Writes are atomic with one generation of rotation (see
        :func:`~repro.service.resilience.persist_with_rotation`): a
        failed write surfaces as
        :class:`~repro.exceptions.SnapshotError` and leaves the
        previous good snapshot intact under its original name.
        """
        if self.snapshot_path is None:
            raise ValidationError("server started without a snapshot path")
        with self._snapshot_lock:
            if self.faults is not None:
                action = self.faults.decide("snapshot.write")
                if action is not None:
                    raise SnapshotError(
                        f"injected fault: snapshot write refused "
                        f"({action.point} #{action.index})"
                    )
            # Deliberately held across the write: this lock exists only
            # to serialize snapshot writers, no hot path contends on it.
            path = self.snapshot_path
            persist_with_rotation(self.service, path)  # ppdm: ignore[L002]
        return str(self.snapshot_path)

    # ------------------------------------------------------------------
    # Route implementations (handler threads call into these)
    # ------------------------------------------------------------------
    def handle_get(self, path: str, query: dict) -> tuple:
        service = self.service
        if path == "/healthz":
            payload = {
                "status": "ok",
                "records": sum(service.n_seen().values()),
            }
            if self.cluster is not None:
                health = self.cluster.health()
                payload["cluster"] = health
                if health["degraded"]:
                    payload["status"] = "degraded"
            if self.draining:
                payload["status"] = "draining"
            return 200, payload
        if path == "/cluster":
            if self.cluster is None:
                return 400, {
                    "error": "this server is not a cluster coordinator"
                }
            return 200, self.cluster.health()
        if path == "/partial":
            rows = query.get("rows")
            include_rows = bool(rows) and rows[0] not in ("", "0", "false")
            if include_rows and self.training is None:
                return 400, {
                    "error": "?rows=1 needs a server started with training"
                }
            from repro.service.cluster import export_sync_body

            return 200, export_sync_body(
                service, self.training if include_rows else None
            )
        if path == "/attributes":
            from repro.serialize import to_jsonable

            return 200, {
                "attributes": [
                    {
                        "name": name,
                        "low": service.spec(name).x_partition.low,
                        "high": service.spec(name).x_partition.high,
                        "n_intervals": service.spec(name).x_partition.n_intervals,
                        "noise": service.spec(name).randomizer.name,
                        "privacy": privacy_of_randomizer(
                            service.spec(name).randomizer,
                            service.spec(name).x_partition.span,
                        ),
                        # the exact noise process, as snapshots store it
                        "randomizer": to_jsonable(service.spec(name).randomizer),
                    }
                    for name in service.attributes
                ]
            }
        if path == "/stats":
            cache = service.engine.kernel_cache
            payload = {
                "n_shards": service.n_shards,
                "classes": service.classes,
                "records": service.n_seen(),
                "kernel_cache": {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "size": len(cache),
                },
            }
            if service.classes and self.cluster is None:
                # a coordinator never ingests, and the one-row partials
                # it replaces its slots with carry no class split
                payload["records_by_class"] = {
                    name: service.n_seen_by_class(name)
                    for name in service.attributes
                }
            if self.training is not None:
                payload["training_records"] = self.training.n_buffered
            if self.admission.max_inflight is not None:
                payload["admission"] = self.admission.stats()
            if self.faults is not None:
                payload["faults"] = self.faults.stats()
            if self.mining is not None:
                payload["mining"] = {
                    "n_items": self.mining.n_items,
                    "keep_prob": self.mining.response.keep_prob,
                    "max_size": self.mining.max_size,
                    "n_shards": len(self.mining.shards),
                    "baskets": self.mining.n_seen,
                }
            return 200, payload
        if path == "/rules":
            if self.mining is None:
                return 400, {"error": "server started without mining"}
            result = self.mining.latest()
            if result is None:
                return 404, {
                    "error": "no mined rules yet: POST /mine first"
                }
            from repro.serialize import to_jsonable

            return 200, to_jsonable(result)
        if path == "/model":
            if self.training is None:
                return 400, {"error": "server started without training"}
            strategies = query.get("strategy")
            strategy = strategies[0] if strategies else None
            if strategy is not None and strategy not in TRAINING_STRATEGIES:
                return 400, {
                    "error": f"unknown strategy {strategy!r}; choose from "
                    f"{list(TRAINING_STRATEGIES)}"
                }
            model = self.training.model(strategy)
            if model is None:
                return 404, {
                    "error": "no trained model yet: POST /train first"
                }
            from repro.serialize import to_jsonable

            return 200, to_jsonable(model)
        if path == "/estimate":
            names = query.get("attribute")
            if not names:
                return 400, {"error": "missing ?attribute=NAME"}
            name = names[0]
            if self.cluster is not None:
                # best-effort pull: an unreachable worker keeps serving
                # from its last-known slot (staleness shows in /healthz)
                self.cluster.sync()
            # warn=False: the cap-hit is reported as converged=false in
            # the payload, and toggling the (process-global) warning
            # filter from handler threads would race other requests.
            result = service.estimate(name, warn=False)
            return 200, {
                "attribute": name,
                "edges": service.spec(name).x_partition.edges.tolist(),
                "probs": result.distribution.probs.tolist(),
                "n_iterations": result.n_iterations,
                "converged": result.converged,
                "chi2_statistic": _finite_or_none(result.chi2_statistic),
                "chi2_threshold": _finite_or_none(result.chi2_threshold),
                "n_seen": service.n_seen(name),
            }
        return 404, {"error": f"unknown route {path!r}"}

    def handle_post(self, path: str, payload) -> tuple:
        if path == "/ingest":
            if self.cluster is not None:
                return 400, {
                    "error": "the coordinator does not ingest; POST "
                    "/ingest to a worker (GET /cluster lists them)"
                }
            ingested, _ = self._absorb_frames([_read_record(payload, "body")])
            return 200, {
                "ingested": ingested,
                "records": sum(self.service.n_seen().values()),
            }
        if path == "/train":
            if self.training is None:
                return 400, {
                    "error": "server started without training; restart "
                    "ppdm serve with --train"
                }
            payload = payload if isinstance(payload, dict) else {}
            strategy = payload.get("strategy", "byclass")
            if not isinstance(strategy, str):
                return 400, {"error": "'strategy' must be a string"}
            if self.cluster is not None:
                # strict pull + union train: unreachable workers degrade
                # to last-known state; never-synced ones raise (503)
                model = self.cluster.train(strategy)
            else:
                model = self.training.train(strategy)
            return 200, {
                "strategy": model.strategy,
                "n_train": model.n_train,
                "n_nodes": model.tree.n_nodes,
                "depth": model.tree.depth,
                "fit_seconds": model.fit_seconds,
            }
        if path == "/mine":
            if self.mining is None:
                return 400, {
                    "error": "server started without mining; restart "
                    "ppdm serve with a mining section in the spec"
                }
            payload = payload if isinstance(payload, dict) else {}
            min_support = payload.get("min_support")
            min_confidence = payload.get("min_confidence")
            for name, value in (
                ("min_support", min_support),
                ("min_confidence", min_confidence),
            ):
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    return 400, {
                        "error": f"'{name}' must be a number in (0, 1]"
                    }
            result = self.mining.mine(float(min_support), float(min_confidence))
            return 200, {
                "min_support": result.min_support,
                "min_confidence": result.min_confidence,
                "n_baskets": result.n_baskets,
                "n_itemsets": len(result.itemsets),
                "n_rules": len(result.rules),
                "mine_seconds": result.mine_seconds,
            }
        if path == "/register":
            if self.cluster is None:
                return 400, {
                    "error": "this server is not a cluster coordinator"
                }
            if not isinstance(payload, dict):
                return 400, {
                    "error": 'body must be {"worker": i, "url": "http://..."}'
                }
            return 200, self.cluster.register(
                payload.get("worker"), payload.get("url")
            )
        if path == "/snapshot":
            return 200, {"saved": self.persist()}
        return 404, {"error": f"unknown route {path!r}"}

    def _absorb_frames(self, frames) -> tuple:
        """Validate, prepare, and absorb ``(batch, classes, shard)`` frames.

        All-or-nothing per request body: every frame is decoded,
        validated, and located (pure, lock-free) *before* the first one
        is accumulated — and when training is enabled, labeled frames
        are also built into full training rows from the columns that
        check returned — so
        a 400 means nothing from the body was absorbed and the client
        can safely re-send the whole thing.  Returns
        ``(records, n_frames)``.
        """
        n_shards = self.service.n_shards
        prepared_frames = []
        for batch, classes, shard in frames:
            if shard is not None and not 0 <= shard < n_shards:
                raise ValidationError(
                    f"shard index {shard} out of range [0, {n_shards})"
                )
            prepared = self.service.prepare(batch, classes)
            rows = None
            if self.training is not None and classes is not None:
                rows = self.training.rows(prepared.columns, prepared.labels)
            prepared_frames.append((prepared, rows, shard))
        ingested = 0
        for prepared, rows, shard in prepared_frames:
            ingested += self.service.ingest_prepared(prepared, shard=shard)
            if rows is not None:
                self.training.absorb_rows(rows)
        return ingested, len(prepared_frames)

    def handle_ingest_frames(self, frames) -> tuple:
        """Ingest decoded ``(batch, classes, shard)`` frames (columnar/NDJSON)."""
        if self.cluster is not None:
            return 400, {
                "error": "the coordinator does not ingest; POST /ingest "
                "to a worker (GET /cluster lists them)"
            }
        ingested, n_frames = self._absorb_frames(frames)
        return 200, {
            "ingested": ingested,
            "frames": n_frames,
            "records": sum(self.service.n_seen().values()),
        }

    def handle_ingest_baskets(self, frames) -> tuple:
        """Ingest decoded basket ``(matrix, shard)`` frames (wire v4).

        Same all-or-nothing contract as :meth:`_absorb_frames`: every
        frame is validated against the mining universe and packed into
        codes (pure, lock-free) before the first one is accumulated, so
        a 400 means the mining counters absorbed nothing from the body.
        """
        if self.cluster is not None:
            return 400, {
                "error": "the coordinator does not ingest; POST /ingest "
                "to a worker (GET /cluster lists them)"
            }
        if self.mining is None:
            return 400, {
                "error": "server started without mining; restart ppdm "
                "serve with a mining section in the spec"
            }
        mining = self.mining
        n_shards = len(mining.shards)
        prepared_frames = []
        for matrix, shard in frames:
            if shard is not None and not 0 <= shard < n_shards:
                raise ValidationError(
                    f"shard index {shard} out of range [0, {n_shards})"
                )
            if matrix.shape[1] != mining.n_items:
                raise ValidationError(
                    f"basket frame declares {matrix.shape[1]} items; this "
                    f"server mines a universe of {mining.n_items}"
                )
            prepared_frames.append((mining.prepare(matrix), shard))
        ingested = 0
        for prepared, shard in prepared_frames:
            ingested += mining.ingest_prepared(prepared, shard=shard)
        return 200, {
            "ingested": ingested,
            "frames": len(prepared_frames),
            "baskets": mining.n_seen,
        }


def _finite_or_none(value: float):
    """NaN has no JSON spelling; estimates without a chi2 pass send null."""
    return float(value) if value == value else None


def _make_handler(server: ServiceHTTPServer):
    class Handler(BaseHTTPRequestHandler):
        # keep-alive: one bulk client streams many /ingest bodies over a
        # single connection; every reply carries Content-Length, so the
        # connection stays open until the client closes it
        protocol_version = "HTTP/1.1"
        # idle keep-alive connections drop after this many seconds;
        # handler threads are non-daemon and joined at server close, so
        # without a socket timeout one silent client would make
        # shutdown()/max_requests block forever on the join
        timeout = 30

        def log_message(self, *args) -> None:  # quiet by default
            pass

        def _send(
            self, status: int, body: bytes, ctype: str, close: bool,
            retry_after: float | None = None,
        ) -> None:
            # Count before replying: a client that already holds its
            # response must observe requests_served as including it,
            # whatever the handler thread's scheduling after the socket
            # write (threads are only joined at server close).
            with server._served_lock:
                server._requests_served += 1
                reap = server._requests_served % _REAP_INTERVAL == 0
            if reap:
                server.reap_handler_threads()
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                # integer seconds per RFC 9110; never advertise zero
                self.send_header(
                    "Retry-After", str(max(1, round(retry_after)))
                )
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _reply(
            self, status: int, payload: dict, *, close: bool = False,
            retry_after: float | None = None,
        ) -> None:
            self._send(
                status, json.dumps(payload).encode(), "application/json",
                close, retry_after,
            )

        def _inject_fault(self, path: str) -> bool:
            """Consult the fault plan; ``True`` means the request is done.

            Runs after the body has been read (keep-alive stays framed)
            and before any handling (nothing was absorbed, so the
            injected failure is always safe for the client to retry).
            """
            if server.faults is None:
                return False
            action = server.faults.decide("httpd.response", qualifier=path)
            if action is None:
                return False
            if action.kind == "drop":
                # vanish: close the socket without sending a byte
                self.close_connection = True
                return True
            if action.kind == "error":
                self._reply(
                    action.status,
                    {"error": f"injected fault ({action.point} "
                     f"#{action.index})"},
                    retry_after=server.admission.retry_after,
                )
                return True
            if action.kind == "delay":
                time.sleep(action.value)
            return False

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            parsed = urlparse(self.path)
            if self._inject_fault(parsed.path):
                return
            try:
                status, payload = server.handle_get(
                    parsed.path, parse_qs(parsed.query)
                )
            except ValidationError as exc:
                status, payload = 400, {"error": str(exc)}
            except ClusterError as exc:
                status, payload = 503, {"error": str(exc)}
            if isinstance(payload, (bytes, bytearray)):
                # GET /partial: the sync body is binary, not JSON
                self._send(status, bytes(payload), CONTENT_TYPE_PARTIAL, False)
            else:
                self._reply(status, payload)

        def _content_type(self) -> str:
            ctype = self.headers.get("Content-Type", "")
            return ctype.split(";", 1)[0].strip().lower()

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            if self.headers.get("Transfer-Encoding"):
                # only Content-Length bodies are read; leaving chunked
                # bytes on a keep-alive socket would desync every later
                # request, so refuse and drop the connection
                self.close_connection = True
                self._reply(
                    501, {"error": "Transfer-Encoding is not supported; "
                          "send a Content-Length body"},
                    close=True,
                )
                return
            codec = resolve_codec(self.headers.get("Content-Encoding"))
            if codec is None:
                # refuse before reading a byte, like the 501 above: the
                # body cannot be decoded, so skipping it buys nothing
                self.close_connection = True
                token = (self.headers.get("Content-Encoding") or "").strip()
                self._reply(
                    415, {"error": f"unsupported Content-Encoding "
                          f"{token!r}; this server accepts "
                          + ", ".join(supported_codecs())},
                    close=True,
                )
                return
            header = self.headers.get("Content-Length")
            if header is None:
                length = 0
            elif header.isascii() and header.isdigit():
                # canonical ASCII digits only: int() would also accept
                # "+5", "1_000", unicode digits, and stray whitespace,
                # silently reading the wrong number of body bytes
                length = int(header)
            else:
                # an unparseable length leaves an unknown number of body
                # bytes on the socket: refuse and drop the connection
                self.close_connection = True
                self._reply(
                    400, {"error": "Content-Length must be a non-negative "
                          "integer in canonical ASCII digits"},
                    close=True,
                )
                return
            if length > server.max_body_bytes:
                # refuse before reading a byte; the unread body cannot be
                # skipped safely on a keep-alive socket, so close
                self.close_connection = True
                self._reply(
                    413, {"error": f"request body of {length} bytes exceeds "
                          f"the {server.max_body_bytes} byte cap"},
                    close=True,
                )
                return
            raw = self.rfile.read(length) if length else b""
            path = urlparse(self.path).path
            ctype = self._content_type()
            if self._inject_fault(path):
                return
            admitted = path == "/ingest"
            if admitted and not server.admission.try_acquire():
                # load shedding happens before any decoding: a 429/503
                # here guarantees the body was not (even partially)
                # absorbed, so the client re-sends it verbatim
                if server.draining:
                    self._reply(
                        503,
                        {"error": "server is draining; retry shortly"},
                        retry_after=server.admission.retry_after,
                    )
                else:
                    self._reply(
                        429,
                        {"error": "too many in-flight ingest bodies "
                         f"(max {server.admission.max_inflight}); "
                         "retry later"},
                        retry_after=server.admission.retry_after,
                    )
                return
            try:
                try:
                    if codec != WIRE_CODEC_IDENTITY:
                        # the full wire body is already off the socket, so
                        # every decode failure below leaves the keep-alive
                        # connection usable; the cap bounds the decoded
                        # size the same way Content-Length bounds raw ones
                        raw = decompress_payload(
                            raw, codec, max_decoded=server.max_body_bytes
                        )
                    if path == "/ingest" and ctype == CONTENT_TYPE_BASKETS:
                        status, out = server.handle_ingest_baskets(
                            iter_basket_frames(raw)
                        )
                    elif path == "/ingest" and ctype == CONTENT_TYPE_COLUMNS:
                        status, out = server.handle_ingest_frames(
                            iter_labeled_frames(raw)
                        )
                    elif path == "/ingest" and ctype == CONTENT_TYPE_NDJSON:
                        status, out = server.handle_ingest_frames(
                            iter_labeled_ndjson(raw)
                        )
                    else:
                        try:
                            payload = json.loads(raw.decode() or "null")
                        except (UnicodeDecodeError, json.JSONDecodeError):
                            self._reply(
                                400, {"error": "body is not valid JSON"}
                            )
                            return
                        status, out = server.handle_post(path, payload)
                except SnapshotError as exc:
                    status, out = 500, {"error": str(exc)}
                except DecodedSizeError as exc:
                    # decompression bomb: entity too large once decoded
                    status, out = 413, {"error": str(exc)}
                except (ValidationError, ValueError) as exc:
                    status, out = 400, {"error": str(exc)}
                except ClusterError as exc:
                    status, out = 503, {"error": str(exc)}
            finally:
                if admitted:
                    server.admission.release()
            self._reply(status, out)

    return Handler
