"""The coordinator + worker cluster tier: multi-node scale-out.

One ``ppdm serve`` process scales to the cores of one machine (shards
binned outside their locks, e20); this module scales *out*:
``ppdm serve --workers N`` starts N worker processes, each a full
:class:`~repro.service.AggregationService` ingesting independently on
its own port, and one coordinator process that serves every
``/estimate`` and ``/train`` over the union of their state.  The paper
makes this cheap: the reconstruction model is aggregate-only, so a
worker's **merged histogram partials** are its complete sufficient
statistic — the sync unit is O(bins), never O(records), and
because histogram counts are exact integers in float64, the
coordinator's merged union is bit-identical to a single process fed the
same records.

Sync protocol
-------------
A worker serves its *cumulative* state at ``GET /partial`` as one
version 3 partial frame (:func:`repro.service.wire.encode_partial`),
with its labeled row buffer appended as ordinary labeled record frames
when training is enabled (:func:`export_sync_body` builds the body).
The coordinator dedicates shard slot ``i`` to worker ``i`` and applies
a sync by *replacing* that slot
(:meth:`~repro.service.AggregationService.replace_partial`), so syncs
are idempotent: a retried or duplicated sync can never double-count.
Only the coordinator moves state, over one channel, the pull
(:meth:`ClusterCoordinator.sync`):

* on a timer — :class:`ClusterSupervisor` pulls every registered worker
  every ``sync_interval`` seconds, which keeps the union fresh between
  queries and doubles as the workers' heartbeat;
* on demand — every ``/estimate`` best-effort pulls all registered
  workers, and ``/train`` pulls strictly.  A worker whose pull fails
  (unreachable, or a reply the coordinator rejects) degrades gracefully
  to its last-known state if it has synced before, and ``/train``
  raises :class:`~repro.exceptions.ClusterError` (HTTP 503) if it has
  *never* synced.

At shutdown a worker drains its server
(:meth:`~repro.service.httpd.ServiceHTTPServer.drain`: shed new ingest,
finish the admitted bodies, write its snapshot once), so its snapshot
holds every record it acknowledged.  The coordinator keeps no
snapshot: a relaunched cluster re-derives its union from the workers'
at their first sync.

``/healthz`` on the coordinator reports per-worker staleness: a worker
is ``stale`` once its last successful sync is older than
``stale_after`` seconds (or it was unreachable on the last pull),
and the cluster is ``degraded`` while any worker is stale or missing.

Everything here is standard library + the existing service tier.  On
Linux, :func:`start_cluster` forks the launch's workers from the
coordinator process, which has already imported NumPy, the HTTP stack
and ``repro``, so no worker starts a new interpreter; it forks after
binding the coordinator's socket and before starting any thread of its
own.  A supervised restart spawns a fresh interpreter instead: by then
the coordinator serves from threads, and a fork copies every lock
another thread holds, still held, with no thread left to release it.
Other platforms spawn at launch too (Windows has no fork, and macOS
system libraries are unsafe after one).
"""

from __future__ import annotations

import http.client
import json
import logging
import multiprocessing
import os
import signal
import sys
import threading
import time
from multiprocessing.process import BaseProcess
from pathlib import Path
from urllib.parse import urlsplit

from repro.exceptions import (
    ClusterError,
    ReproError,
    SnapshotError,
    ValidationError,
)
from repro.service.faults import FaultPlan
from repro.service.httpd import ServiceHTTPServer
from repro.service.resilience import RestartBudget, recover_service
from repro.service.service import AggregationService, service_from_spec
from repro.service.training import TrainedModel, TrainingService
from repro.service.wire import (
    encode_columns,
    encode_partial,
    iter_labeled_frames,
    split_partial,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterSupervisor",
    "export_sync_body",
    "register_worker",
    "start_cluster",
]

#: default seconds before a silent worker is reported stale in /healthz
_DEFAULT_STALE_AFTER = 15.0

#: default per-request timeout for cluster-internal HTTP (seconds)
_DEFAULT_TIMEOUT = 10.0

#: exit code a worker uses when its exit snapshot failed
_DRAIN_FAILED_EXIT = 3

#: seconds between the supervisor's worker liveness checks
_MONITOR_INTERVAL = 0.2

#: seconds between wait_ready's checks for workers that died unregistered
_READY_RECHECK = 0.05

logger = logging.getLogger("repro.service.cluster")


def _default_fetch(
    url: str,
    data: bytes | None = None,
    content_type: str | None = None,
    timeout: float = _DEFAULT_TIMEOUT,
) -> bytes:
    """One cluster-internal HTTP request; any failure is a ClusterError.

    GET when ``data`` is None, POST otherwise, on a connection of its
    own that closes after the reply.  No proxy is consulted: the peers
    are the cluster's own processes.  Transport errors, malformed
    replies (a garbled status line, a body cut short by a peer that
    died mid-reply) and non-2xx statuses all normalize to
    :class:`~repro.exceptions.ClusterError` so callers have exactly one
    "the peer did not take this" signal to retry or degrade on.
    """
    parts = urlsplit(url)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    connection_class = (
        http.client.HTTPSConnection
        if parts.scheme == "https"
        else http.client.HTTPConnection
    )
    connection = connection_class(parts.hostname or "", parts.port, timeout=timeout)
    headers = {} if content_type is None else {"Content-Type": content_type}
    try:
        connection.request(
            "GET" if data is None else "POST", target, body=data, headers=headers
        )
        response = connection.getresponse()
        body = response.read()
    except OSError as exc:
        raise ClusterError(f"{url} is unreachable: {exc}") from exc
    except http.client.HTTPException as exc:
        raise ClusterError(f"{url} sent a malformed reply: {exc!r}") from exc
    finally:
        connection.close()
    if not 200 <= response.status < 300:
        detail = body.decode("utf-8", "replace")[:200]
        raise ClusterError(
            f"{url} answered HTTP {response.status}: "
            f"{detail or response.reason}"
        )
    return body


def export_sync_body(service, training=None) -> bytes:
    """Encode one worker's cumulative state as a sync body.

    A version 3 partial frame of the service's merged counts, one row
    (``n_blocks = 1``) per attribute;
    when ``training`` is given, the labeled row buffer follows as
    labeled record frames, which are all the coordinator trains on.  The
    two are read one after the other, so a batch absorbed in between
    reaches the coordinator's ``/estimate`` one sync before its
    ``/train``.  The body is idempotent by construction — it carries
    totals, not deltas.

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import AggregationService, AttributeSpec
    >>> from repro.service.cluster import export_sync_body
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> service = AggregationService(
    ...     [AttributeSpec("x", Partition.uniform(0, 1, 4), noise)]
    ... )
    >>> _ = service.ingest({"x": [0.4, 0.6]})
    >>> export_sync_body(service)[:4]
    b'PPDM'
    """
    partials = service.export_partial()
    blocks = training.export_rows() if training is not None else []
    names = service.attributes
    frames = [encode_partial(partials)]
    for matrix, labels in blocks:
        batch = {name: matrix[:, j] for j, name in enumerate(names)}
        frames.append(encode_columns(batch, classes=labels))
    return b"".join(frames)


class _WorkerLink:
    """Coordinator-side record of one registered worker."""

    __slots__ = ("worker", "url", "records", "last_sync", "reachable", "rows")

    def __init__(self, worker: int, url: str) -> None:
        self.worker = worker
        self.url = url
        self.records = 0
        self.last_sync: float | None = None
        self.reachable = True
        # the worker's labeled rows as of the last pull that asked for
        # them; None until one has
        self.rows: list | None = None


class ClusterCoordinator:
    """Tracks worker registrations and folds their partials into a service.

    Parameters
    ----------
    service:
        The coordinator's :class:`~repro.service.AggregationService`.
        Worker ``i`` owns shard slot ``i``, so the service must be built
        with ``n_shards >= n_workers``.
    n_workers:
        Cluster width (defaults to ``service.n_shards``).
    training:
        Optional :class:`~repro.service.TrainingService` over
        ``service``; enables row sync and :meth:`train`.
    stale_after:
        Seconds of sync silence before a worker is reported stale.
    fetch:
        Injectable transport ``fetch(url, data=None, content_type=None,
        timeout=...) -> bytes`` (tests swap in an in-process fake).

    Examples
    --------
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.service import AggregationService, AttributeSpec
    >>> from repro.service.cluster import ClusterCoordinator, export_sync_body
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> def build():
    ...     return AggregationService(
    ...         [AttributeSpec("x", Partition.uniform(0, 1, 4), noise)]
    ...     )
    >>> worker = build()
    >>> _ = worker.ingest({"x": [0.4, 0.6, 0.5]})
    >>> coordinator = ClusterCoordinator(build())
    >>> coordinator.register(0, "http://127.0.0.1:0")["worker"]
    0
    >>> coordinator.apply_push(0, export_sync_body(worker), rows=False)
    3
    >>> coordinator.service.n_seen("x")
    3
    """

    def __init__(
        self,
        service: AggregationService,
        *,
        n_workers: int | None = None,
        training: TrainingService | None = None,
        stale_after: float = _DEFAULT_STALE_AFTER,
        timeout: float = _DEFAULT_TIMEOUT,
        fetch=None,
    ) -> None:
        self.service = service
        self.training = training
        if training is not None and training.service is not service:
            raise ValidationError(
                "the coordinator's training service must wrap its "
                "AggregationService instance"
            )
        self.n_workers = service.n_shards if n_workers is None else int(n_workers)
        if not 1 <= self.n_workers <= service.n_shards:
            raise ValidationError(
                f"n_workers must be in [1, {service.n_shards}] (one shard "
                f"slot per worker), got {self.n_workers}"
            )
        if stale_after <= 0:
            raise ValidationError(
                f"stale_after must be > 0 seconds, got {stale_after}"
            )
        self.stale_after = float(stale_after)
        self.timeout = float(timeout)
        self._fetch = _default_fetch if fetch is None else fetch
        self._links: dict = {}
        # guards the registry and every _WorkerLink field; held only for
        # in-memory bookkeeping, never across HTTP or service calls
        self._lock = threading.Lock()
        # notified on every registration (see wait_registered)
        self._registered = threading.Condition(self._lock)
        # optional supervision-status provider (set by ClusterSupervisor)
        self._supervision = None

    # ------------------------------------------------------------------
    # Registration (worker-initiated)
    # ------------------------------------------------------------------
    def register(self, worker, url) -> dict:
        """Register (or re-register) worker ``worker`` serving at ``url``.

        Re-registration with the same id just updates the URL — a
        restarted worker resumes its slot, and its next sync replaces
        whatever its previous incarnation had synced.
        """
        if not isinstance(worker, int) or isinstance(worker, bool):
            raise ValidationError("'worker' must be an integer id")
        if not 0 <= worker < self.n_workers:
            raise ValidationError(
                f"worker id {worker} out of range [0, {self.n_workers})"
            )
        if not isinstance(url, str) or not url.startswith(("http://", "https://")):
            raise ValidationError(
                f"worker url must be an http(s) URL, got {url!r}"
            )
        url = url.rstrip("/")
        with self._lock:
            link = self._links.get(worker)
            if link is None:
                self._links[worker] = _WorkerLink(worker, url)
            else:
                link.url = url
                link.reachable = True
            registered = len(self._links)
            self._registered.notify_all()
        return {"worker": worker, "n_workers": self.n_workers,
                "registered": registered}

    def wait_registered(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds until every worker registered."""
        with self._registered:
            return self._registered.wait_for(
                lambda: len(self._links) >= self.n_workers, timeout
            )

    def apply_push(self, worker: int, payload, *, rows: bool) -> int:
        """Absorb one sync body from worker ``worker``; return its records.

        :meth:`sync` applies every pulled body here.  Decodes and
        validates everything — the partial frame and any trailing
        labeled row frames — *before* touching state, so a malformed
        body changes nothing.  A valid body replaces the worker's shard
        slot and counts as a heartbeat.  ``rows`` says whether the body
        was asked for with the worker's labeled rows (``?rows=1``): then
        its row frames, none included, replace the worker's buffered
        segment.  Otherwise the body may carry no row frames, and the
        segment keeps the rows of the last pull that asked for them; an
        empty tail could not tell "not asked" from "no rows".
        """
        partials, rest = split_partial(payload)
        blocks = []
        if len(rest):
            if self.training is None:
                raise ValidationError(
                    "sync body carries row frames but the coordinator has "
                    "no training service"
                )
            if not rows:
                raise ValidationError(
                    "sync body carries row frames that were not asked for"
                )
            # rows are checked, never located: the partial frame already
            # carries their counts
            check = self.service.domain.check
            for batch, classes, _ in iter_labeled_frames(rest):
                if classes is None:
                    raise ValidationError(
                        "sync row frames must carry a class column"
                    )
                blocks.append(self.training.rows(*check(batch, classes)))
        with self._lock:
            link = self._links.get(worker)
        if link is None:
            raise ValidationError(
                f"worker {worker} is not registered; POST /register first"
            )
        records = self.service.replace_partial(worker, partials)
        with self._lock:
            link.records = int(records)
            link.last_sync = time.monotonic()
            link.reachable = True
            if rows:
                link.rows = blocks
        return records

    # ------------------------------------------------------------------
    # Pull (coordinator-initiated)
    # ------------------------------------------------------------------
    def sync(self, *, require_all: bool = False, rows: bool = False) -> dict:
        """Pull fresh partials from every registered worker.

        The cluster's only transfer path: the supervisor's timer,
        ``/estimate`` and ``/train`` all come through here.  Only
        ``rows=True`` (``/train``) also pulls each worker's labeled row
        buffer; the timer and ``/estimate`` move the partial frame
        alone, whatever the workers buffer.
        Best-effort by default (``/estimate``): a failed pull — the
        worker is unreachable, or :meth:`apply_push` rejects the body it
        sent — marks the worker unreachable, its shard slot keeps
        serving the last-known state, and the pull moves on.  With
        ``require_all`` (``/train``) a failed pull from a worker with no
        last-known state to degrade to — it never synced, or with
        ``rows`` its rows were never pulled — raises
        :class:`~repro.exceptions.ClusterError`.  Returns ``{"synced":
        [...], "failed": [...]}`` worker id lists.
        """
        if rows and self.training is None:
            raise ValidationError(
                "pulling rows needs a coordinator with a training service"
            )
        with self._lock:
            targets = [
                (link.worker, link.url)
                for link in sorted(self._links.values(), key=lambda s: s.worker)
            ]
        path = "/partial?rows=1" if rows else "/partial"
        synced = []
        failed = []
        for worker, url in targets:
            try:
                payload = self._fetch(url + path, timeout=self.timeout)
                # a body the worker garbled is the worker's fault, not
                # the analyst's: it fails this pull, it is no 400
                self.apply_push(worker, payload, rows=rows)
            except (ClusterError, ValidationError) as exc:
                with self._lock:
                    link = self._links[worker]
                    link.reachable = False
                    never_synced = link.last_sync is None or (
                        rows and link.rows is None
                    )
                if require_all and never_synced:
                    what = "its rows" if rows else "a partial"
                    raise ClusterError(
                        f"worker {worker} at {url} failed its pull and has "
                        f"never synced {what}: {exc}"
                    ) from exc
                failed.append(worker)
                continue
            synced.append(worker)
        return {"synced": synced, "failed": failed}

    def train(self, strategy: str = "byclass") -> TrainedModel:
        """Sync strictly, install the union row buffer, and grow a tree.

        Workers are pulled first, each with its labeled rows (HTTP
        strictly outside any lock); their row segments, in worker
        order, then replace the training buffer,
        and the tree grows from that buffer alone.  The grown tree is
        bit-identical to a single-process training service fed the same
        labeled rows in worker order.
        """
        if self.training is None:
            raise ValidationError(
                "the coordinator was built without a training service"
            )
        self.sync(require_all=True, rows=True)
        with self._lock:
            segments = [
                block
                for link in sorted(self._links.values(), key=lambda s: s.worker)
                for block in link.rows or ()
            ]
        self.training.replace_rows(segments)
        return self.training.train(strategy)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Per-worker sync state for ``/healthz`` and ``GET /cluster``.

        A worker is ``stale`` when it has never synced, was unreachable
        on the last pull, or its last sync is older than
        ``stale_after`` seconds; the cluster is ``degraded`` while any
        worker is stale or not yet registered.
        """
        now = time.monotonic()
        workers = []
        with self._lock:
            for link in sorted(self._links.values(), key=lambda s: s.worker):
                age = None if link.last_sync is None else now - link.last_sync
                stale = (
                    age is None
                    or age > self.stale_after
                    or not link.reachable
                )
                workers.append(
                    {
                        "worker": link.worker,
                        "url": link.url,
                        "records": link.records,
                        "age_seconds": age,
                        "reachable": link.reachable,
                        "stale": stale,
                    }
                )
        degraded = len(workers) < self.n_workers or any(
            entry["stale"] for entry in workers
        )
        payload = {
            "n_workers": self.n_workers,
            "registered": len(workers),
            "stale_after": self.stale_after,
            "degraded": degraded,
            "workers": workers,
        }
        if self._supervision is not None:
            supervision = self._supervision()
            payload["supervision"] = supervision
            if supervision.get("exhausted") or not all(
                supervision.get("alive", ())
            ):
                payload["degraded"] = True
        return payload

    def attach_supervision(self, provider) -> None:
        """Attach a supervision-status callable reported by :meth:`health`.

        :class:`ClusterSupervisor` installs its own status here so
        ``/healthz`` and ``GET /cluster`` expose restart counts, live
        flags, and exhausted (permanently degraded) worker slots.
        """
        self._supervision = provider


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def register_worker(
    coordinator_url: str,
    worker: int,
    worker_url: str,
    *,
    retries: int = 20,
    backoff: float = 0.25,
    timeout: float = _DEFAULT_TIMEOUT,
    fetch=None,
    sleep=time.sleep,
    faults: FaultPlan | None = None,
) -> dict:
    """Announce a worker to the coordinator, retrying with backoff.

    Workers and coordinator start concurrently, so the first attempts
    may hit a coordinator that is not listening yet; registration keeps
    retrying (delays double up to ~8 s) until it lands or ``retries``
    are spent (then the last :class:`~repro.exceptions.ClusterError`
    propagates).  A fault plan with a ``register.request`` point can
    drop or delay individual attempts (chaos testing the retry path).
    """
    fetch = _default_fetch if fetch is None else fetch
    body = json.dumps({"worker": int(worker), "url": worker_url}).encode()
    delay = backoff
    for attempt in range(max(1, int(retries))):
        try:
            if faults is not None:
                action = faults.decide("register.request")
                if action is not None and action.kind == "drop":
                    raise ClusterError(
                        f"injected fault: registration attempt dropped "
                        f"({action.point} #{action.index})"
                    )
                if action is not None and action.kind == "delay":
                    sleep(action.value)
            raw = fetch(
                coordinator_url.rstrip("/") + "/register",
                data=body,
                content_type="application/json",
                timeout=timeout,
            )
            return json.loads(raw.decode())
        except ClusterError:
            if attempt + 1 >= max(1, int(retries)):
                raise
            sleep(delay)
            delay = min(delay * 2, 8.0)
    raise ClusterError("unreachable")  # pragma: no cover - loop always returns


# ----------------------------------------------------------------------
# Process topology
# ----------------------------------------------------------------------
def _worker_main(config: dict) -> None:
    """Entry point of one worker process.

    Builds a full service (plus training when configured) from the
    deployment spec, serves it on an ephemeral port, and registers with
    the coordinator (retrying until it is up), which pulls its partials
    from then on.  On the supervisor's stop signal (SIGTERM) it drains
    its server and shuts it down.  With a per-worker ``snapshot_path``
    the worker recovers its cumulative state from the newest valid
    generation at startup (so a supervised restart resumes the slot
    instead of replacing it with empty counts), and its server
    auto-snapshots every ``snapshot_interval`` seconds.  A failed exit
    snapshot exits with code ``_DRAIN_FAILED_EXIT`` so the supervisor
    can report the loss.

    The stop signal is deliberately an OS signal and a *process-local*
    event, never shared IPC state: a ``multiprocessing.Event`` waiter
    that dies under SIGKILL leaves the event's internal condition
    counting a sleeper that will never wake, deadlocking the next
    ``set()`` — exactly the crash the supervisor must survive.
    """
    stop = threading.Event()
    # installed before any blocking work so an early terminate() still
    # lands on the graceful path; Ctrl-C belongs to the supervisor
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults = FaultPlan.from_spec(config.get("faults"))
    if faults is None:
        faults = FaultPlan.from_env()
    snapshot_path = config.get("snapshot_path")
    service = None
    if snapshot_path is not None:
        try:
            service, recovered_from = recover_service(snapshot_path)
            logger.warning(
                "worker %d recovered %d record(s) from %s",
                config["worker"],
                sum(service.n_seen().values()),
                recovered_from,
            )
        except SnapshotError:
            service = None  # first boot: nothing persisted yet
    if service is None:
        service = service_from_spec(config["spec"])
    training = TrainingService(service) if config.get("train") else None
    server = ServiceHTTPServer(
        service, config.get("host", "127.0.0.1"), 0, training=training,
        snapshot_path=snapshot_path,
        snapshot_interval=config.get("snapshot_interval"), faults=faults,
        max_inflight=config.get("max_inflight"),
    )
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    persisted = True
    try:
        register_worker(
            config["coordinator_url"], config["worker"], server.url,
            faults=faults,
        )
        stop.wait()
    finally:
        try:
            server.drain()
        except ReproError as exc:
            logger.warning(
                "worker %d exit-time snapshot failed: %s",
                config["worker"], exc,
            )
            persisted = False
        server.shutdown()
    if not persisted:
        # reached only on a clean stop signal: surface the lost snapshot
        # as a nonzero exit code the supervisor turns into a non-OK result
        raise SystemExit(_DRAIN_FAILED_EXIT)


def _forked_worker_main(coordinator: ServiceHTTPServer, config: dict) -> None:
    """Entry point of a worker forked at launch; runs :func:`_worker_main`.

    The fork copied the coordinator's listening socket into this
    process.  Closing it first keeps the port the coordinator's alone:
    no connection queues at a worker, and the port refuses connections
    once the coordinator closes it.
    """
    coordinator.close()
    _worker_main(config)


class ClusterSupervisor:
    """Owns a running cluster: coordinator server + worker processes.

    Built by :func:`start_cluster`.  The coordinator's HTTP loop runs in
    a background thread (so registrations land while the caller is still
    setting up); :meth:`wait` blocks the calling thread until
    interrupted, and :meth:`shutdown` stops the cluster — its own
    threads first, then the workers (each drains and writes its
    snapshot), the coordinator last — and returns a result dict whose
    ``ok`` flag is False when any worker's exit snapshot failed.

    A sync thread calls :meth:`ClusterCoordinator.sync` every
    ``sync_interval`` seconds, the one timer that moves worker state.
    The supervisor also *monitors*: a thread polls worker liveness,
    starts a fresh process from the spawn ``context`` and the worker's
    entry in ``configs`` for each dead one under its entry in
    ``budgets`` (a :class:`RestartBudget`: exponential backoff,
    sliding-window cap), and reports restart counts plus exhausted
    (permanently degraded) slots through the coordinator's health
    payload.  A fault plan with a ``supervisor.kill`` point lets a
    chaos run SIGKILL live workers deterministically.
    """

    def __init__(
        self,
        server: ServiceHTTPServer,
        coordinator: ClusterCoordinator,
        processes,
        *,
        context,
        configs,
        budgets,
        sync_interval: float,
        faults: FaultPlan | None = None,
    ) -> None:
        self.server = server
        self.coordinator = coordinator
        self.processes = list(processes)
        self._done = threading.Event()
        self._context = context
        self._configs = list(configs)
        self._faults = faults
        # guards self.processes / restart bookkeeping: the monitor thread
        # swaps restarted Process objects in while other threads iterate
        self._plock = threading.Lock()
        self.restarts = [0] * len(self.processes)
        self._exhausted = [False] * len(self.processes)
        self._budgets = list(budgets)
        self._shutdown_result: dict | None = None
        self._sync_interval = float(sync_interval)
        # stops the monitor and the sync thread
        self._stop = threading.Event()
        coordinator.attach_supervision(self.supervision)
        self._serve_thread = threading.Thread(
            target=self.server.serve_forever, name="cluster-coordinator",
            daemon=True,
        )
        self._serve_thread.start()
        self._threads = [
            threading.Thread(target=target, name=name, daemon=True)
            for target, name in (
                (self._watch, "cluster-supervisor"),
                (self._sync_loop, "cluster-sync"),
            )
        ]
        for thread in self._threads:
            thread.start()

    @property
    def url(self) -> str:
        """The coordinator's base URL."""
        return self.server.url

    def worker_urls(self) -> list:
        """Registered worker base URLs, in worker order."""
        return [
            entry["url"] for entry in self.coordinator.health()["workers"]
        ]

    def supervision(self) -> dict:
        """Live supervision status (surfaced by the coordinator's health)."""
        with self._plock:
            return {
                "supervised": True,
                "alive": [p.is_alive() for p in self.processes],
                "restarts": list(self.restarts),
                "exhausted": [
                    i for i, flag in enumerate(self._exhausted) if flag
                ],
            }

    # ------------------------------------------------------------------
    # Sync, monitoring, restart
    # ------------------------------------------------------------------
    def _sync_loop(self) -> None:
        while not self._stop.wait(self._sync_interval):
            try:
                self.coordinator.sync()
            except Exception:  # a tick must not end the loop
                logger.exception("background sync failed (will retry)")

    def _spawn(self, index: int):
        process = self._context.Process(
            target=_worker_main, args=(self._configs[index],),
            name=f"ppdm-worker-{index}", daemon=True,
        )
        process.start()
        return process

    def _watch(self) -> None:
        while not self._stop.wait(_MONITOR_INTERVAL):
            with self._plock:
                snapshot = list(enumerate(self.processes))
            for index, process in snapshot:
                if self._stop.is_set():
                    return
                if self._faults is not None and process.is_alive():
                    action = self._faults.decide(
                        "supervisor.kill", qualifier=str(index)
                    )
                    if action is not None and action.kind == "kill":
                        logger.warning(
                            "injected fault: SIGKILL worker %d (pid %s, "
                            "%s #%d)",
                            index, process.pid, action.point, action.index,
                        )
                        os.kill(process.pid, signal.SIGKILL)
                        process.join(10.0)
                if process.is_alive() or self._exhausted[index]:
                    continue
                delay = self._budgets[index].spend()
                if delay is None:
                    with self._plock:
                        self._exhausted[index] = True
                    logger.warning(
                        "worker %d died (exit code %s) with its restart "
                        "budget exhausted; the slot stays degraded",
                        index, process.exitcode,
                    )
                    continue
                logger.warning(
                    "worker %d died (exit code %s); restarting in %.2fs",
                    index, process.exitcode, delay,
                )
                if self._stop.wait(delay):
                    return
                replacement = self._spawn(index)
                with self._plock:
                    self.processes[index] = replacement
                    self.restarts[index] += 1

    def wait_ready(self, timeout: float = 30.0) -> "ClusterSupervisor":
        """Block until every worker has registered (and raise past ``timeout``)."""
        deadline = time.monotonic() + timeout
        # each registration wakes the wait; the timeout only paces the
        # re-check of dead and exhausted workers
        while not self.coordinator.wait_registered(_READY_RECHECK):
            with self._plock:
                snapshot = list(enumerate(self.processes))
            for index, process in snapshot:
                # a dead worker may be mid-restart; only an exhausted
                # slot is hopeless
                if not process.is_alive() and self._exhausted[index]:
                    raise ClusterError(
                        f"worker process pid={process.pid} exited with "
                        f"code {process.exitcode} before registering"
                    )
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"only {self.coordinator.health()['registered']} of "
                    f"{self.coordinator.n_workers} workers registered "
                    f"within {timeout:.0f}s"
                )
        return self

    def wait(self) -> None:
        """Block until :meth:`shutdown` (or KeyboardInterrupt) unblocks us."""
        self._done.wait()

    def shutdown(self, timeout: float = 30.0) -> dict:
        """Stop syncing, drain the workers, then stop the server.

        Returns ``{"ok": bool, "failures": [...], "restarts": [...],
        "exhausted": [...]}``.  ``ok`` is False — and a warning is
        logged — when any worker was terminated without exiting, exited
        nonzero (a failed exit snapshot exits ``_DRAIN_FAILED_EXIT``), or
        had exhausted its restart budget; callers such as ``ppdm serve
        --workers`` exit nonzero on it instead of losing the outcome
        silently.  Idempotent: repeated calls return the first result.
        """
        if self._shutdown_result is not None:
            return self._shutdown_result
        # no tick may race the workers' exits, nor a restart revive one
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        failures = []
        with self._plock:
            processes = list(self.processes)
            exhausted = [
                i for i, flag in enumerate(self._exhausted) if flag
            ]
        # the stop signal is SIGTERM per live process, never a shared
        # multiprocessing.Event: a SIGKILLed waiter leaves such an event
        # with a sleeper that never wakes, deadlocking set() (and with
        # it every future shutdown)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for index, process in enumerate(processes):
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(5.0)
                failures.append({
                    "worker": index,
                    "reason": "did not exit in time; terminated",
                })
            elif index in exhausted:
                failures.append({
                    "worker": index,
                    "reason": "restart budget exhausted; slot was down",
                })
            elif process.exitcode != 0:
                reason = (
                    "final snapshot failed"
                    if process.exitcode == _DRAIN_FAILED_EXIT
                    else f"exit code {process.exitcode}"
                )
                failures.append({"worker": index, "reason": reason})
        self.server.shutdown()
        self._serve_thread.join(timeout)
        self._done.set()
        result = {
            "ok": not failures,
            "failures": failures,
            "restarts": list(self.restarts),
            "exhausted": exhausted,
        }
        if failures:
            logger.warning(
                "cluster shutdown was not clean: %s",
                "; ".join(
                    f"worker {f['worker']}: {f['reason']}" for f in failures
                ),
            )
        self._shutdown_result = result
        return result


def start_cluster(
    spec: dict,
    *,
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    train: bool = False,
    sync_interval: float = 5.0,
    stale_after: float | None = None,
    snapshot_dir=None,
    snapshot_interval: float | None = None,
    faults=None,
    restart_limit: int = 5,
    restart_backoff: float = 0.1,
    max_inflight: int | None = None,
) -> ClusterSupervisor:
    """Launch a coordinator + ``n_workers`` worker-process cluster.

    The coordinator's service is built from the same deployment ``spec``
    as the workers but with one shard slot per worker (worker ``i``
    syncs into slot ``i``); each worker process binds an ephemeral port
    and registers itself.  The coordinator pulls every registered worker
    each ``sync_interval`` seconds, and on every ``/estimate`` and
    ``/train``; ``stale_after`` defaults to three sync intervals.
    Returns a :class:`ClusterSupervisor`; call
    :meth:`~ClusterSupervisor.wait_ready` to block until every worker is
    registered and :meth:`~ClusterSupervisor.shutdown` to drain and stop.

    On Linux the workers are *forked* from the calling thread, after the
    coordinator's socket is bound and before this function starts any
    thread, so they reuse every module the caller has imported instead
    of importing their own.  A fork copies whatever locks the caller's
    other threads hold at that moment, so call this before starting
    threads that take locks (``ppdm serve --workers`` calls it before
    starting any).  Elsewhere the workers are *spawned* (fresh
    interpreters), and so is every supervised restart, on every
    platform.  If any step after the bind fails — a worker that cannot
    be started, say — the coordinator's socket is closed and the
    workers already started are killed before the error propagates;
    none of them has registered, so none has anything to drain.

    Resilience knobs: ``snapshot_dir`` gives every worker a private
    snapshot file (``worker-<i>.json``) it recovers from after a
    supervised restart and persists at exit; ``snapshot_interval``
    auto-snapshots the workers on that period.  The coordinator keeps
    no snapshot: its union is derived state, which a relaunched
    cluster's workers re-derive from their own files at their first
    sync.  ``faults`` is a
    :class:`~repro.service.faults.FaultPlan` (or spec dict) shipped to
    every process; each worker's
    :class:`~repro.service.resilience.RestartBudget` allows
    ``restart_limit`` restarts per 60 s window, the first after
    ``restart_backoff`` seconds; ``max_inflight``
    bounds each worker's concurrent ingest bodies (429 + Retry-After
    past it).  ``snapshot_dir`` is incompatible with ``train=True`` —
    the labeled row buffer is not part of the aggregation snapshot, so
    a restored worker would ship aggregates without their rows.  A spec
    with a ``mining`` section is refused too, before anything starts:
    a sync body carries no support counts, so a cluster cannot mine.
    """
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    if not sync_interval > 0:
        raise ValidationError(
            f"sync_interval must be > 0 seconds, got {sync_interval}"
        )
    if not isinstance(spec, dict):
        raise ValidationError("the deployment spec must be a dict")
    if "mining" in spec:
        raise ValidationError(
            'a cluster cannot serve the spec\'s "mining" section: workers '
            "sync histogram partials, never support counts, so no process "
            "would mine the baskets; drop the section, or serve mining "
            "from one process (ppdm serve without --workers)"
        )
    if snapshot_dir is not None and train:
        raise ValidationError(
            "snapshot_dir cannot be combined with train=True: the "
            "training row buffer is not part of the aggregation "
            "snapshot, so a recovered worker would sync aggregates "
            "without their labeled rows"
        )
    if snapshot_interval is not None and snapshot_dir is None:
        raise ValidationError("snapshot_interval needs snapshot_dir to write to")
    if snapshot_interval is not None and not snapshot_interval > 0:
        raise ValidationError("snapshot interval must be > 0 seconds")
    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.from_spec(faults)
    fault_spec = plan.to_spec() if plan is not None else None
    budgets = [
        RestartBudget(max_restarts=restart_limit, backoff=restart_backoff)
        for _ in range(n_workers)
    ]
    coordinator_spec = dict(spec)
    coordinator_spec["shards"] = int(n_workers)
    service = service_from_spec(coordinator_spec)
    training = TrainingService(service) if train else None
    coordinator = ClusterCoordinator(
        service,
        n_workers=n_workers,
        training=training,
        stale_after=(
            3.0 * sync_interval if stale_after is None else stale_after
        ),
    )
    server = ServiceHTTPServer(
        service, host, port, cluster=coordinator, training=training,
        faults=plan,
    )
    spawn = multiprocessing.get_context("spawn")
    processes: list[BaseProcess] = []
    process: BaseProcess
    configs = []
    try:
        for worker in range(n_workers):
            worker_snapshot = None
            if snapshot_dir is not None:
                worker_snapshot = str(
                    Path(snapshot_dir) / f"worker-{worker}.json"
                )
            config = {
                "spec": dict(spec),
                "worker": worker,
                "coordinator_url": server.url,
                "host": host,
                "train": bool(train),
                "snapshot_path": worker_snapshot,
                "snapshot_interval": snapshot_interval,
                "faults": fault_spec,
                "max_inflight": max_inflight,
            }
            configs.append(config)
            name = f"ppdm-worker-{worker}"
            if sys.platform == "linux":
                process = multiprocessing.get_context("fork").Process(
                    target=_forked_worker_main, args=(server, config),
                    name=name, daemon=True,
                )
            else:
                process = spawn.Process(
                    target=_worker_main, args=(config,), name=name,
                    daemon=True,
                )
            process.start()
            processes.append(process)
        return ClusterSupervisor(
            server, coordinator, processes,
            context=spawn, configs=configs, budgets=budgets,
            sync_interval=sync_interval, faults=plan,
        )
    except BaseException:
        # no worker has registered yet, so there is nothing to drain:
        # free the port and stop every process this launch started
        server.close()
        for process in processes:
            process.kill()
        for process in processes:
            process.join()
        raise
