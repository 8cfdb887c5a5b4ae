"""Command-line interface for the PPDM reproduction.

Examples
--------
::

    ppdm reconstruct --shape plateau --noise uniform --privacy 0.5
    ppdm classify --privacy 1.0 --functions 1 2 3
    ppdm sweep --function 3 --levels 0.25 0.5 1.0 2.0
    ppdm privacy --privacy 1.0
    ppdm quest-info
    ppdm bench run --tags smoke --jobs 2
    ppdm bench compare baseline/ candidate/ --fail-on-regression 1.3x
    ppdm serve --spec service.json --snapshot state.json --port 8000
    ppdm ingest --snapshot state.json --attribute age values.txt --estimate
    ppdm ingest --url http://127.0.0.1:8000 --attribute age --class-label 1 values.txt
    ppdm ingest --url http://127.0.0.1:8000 --baskets --mask-p 0.9 baskets.json
    ppdm train --url http://127.0.0.1:8000 --strategy byclass --save model.json
    ppdm mine --url http://127.0.0.1:8000 --min-support 0.2 --min-confidence 0.5

Every subcommand prints the same ASCII tables the benchmark harness
produces, so paper figures can be regenerated without pytest; ``ppdm
bench`` additionally emits the machine-readable ``BENCH_<id>.json``
artifacts (see :mod:`repro.bench`).
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from pathlib import Path

from repro.exceptions import ReproError

from repro.core.privacy import NOISE_KINDS, noise_for_privacy, privacy_of_randomizer
from repro.datasets import quest
from repro.experiments.classification import (
    run_privacy_sweep,
    run_strategy_comparison,
)
from repro.experiments.config import ClassificationConfig, ReconstructionConfig
from repro.experiments.reconstruction import run_reconstruction
from repro.experiments.reporting import accuracy_matrix, format_table
from repro.tree.pipeline import STRATEGIES


def _add_noise_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--noise", choices=NOISE_KINDS, default="uniform")
    parser.add_argument("--privacy", type=float, default=1.0)
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=7)


def _cmd_reconstruct(args) -> int:
    config = ReconstructionConfig(
        shape=args.shape,
        noise=args.noise,
        privacy=args.privacy,
        confidence=args.confidence,
        n=args.n,
        n_intervals=args.intervals,
        seed=args.seed,
    )
    outcome = run_reconstruction(config)
    print(
        format_table(
            ("midpoint", "true", "original", "randomized", "reconstructed"),
            outcome.rows(),
            title=(
                f"Reconstruction of {args.shape} "
                f"({args.noise} noise, privacy {args.privacy:g})"
            ),
        )
    )
    print(
        f"\nL1(original, randomized)    = {outcome.l1_randomized:.4f}\n"
        f"L1(original, reconstructed) = {outcome.l1_reconstructed:.4f}\n"
        f"iterations = {outcome.n_iterations}"
    )
    return 0


def _cmd_classify(args) -> int:
    config = ClassificationConfig(
        functions=tuple(args.functions),
        strategies=tuple(args.strategies),
        noise=args.noise,
        privacy=args.privacy,
        confidence=args.confidence,
        n_train=args.train,
        n_test=args.test,
        seed=args.seed,
    )
    rows = run_strategy_comparison(config)
    print(
        f"Accuracy (%) at privacy {args.privacy:g} with {args.noise} noise, "
        f"n_train={args.train}:"
    )
    print(accuracy_matrix(rows))
    return 0


def _cmd_sweep(args) -> int:
    config = ClassificationConfig(
        functions=(args.function,),
        strategies=tuple(args.strategies),
        noise=args.noise,
        confidence=args.confidence,
        n_train=args.train,
        n_test=args.test,
        seed=args.seed,
    )
    rows = run_privacy_sweep(config, args.levels)
    table_rows = [
        (f"{row.privacy:g}", row.strategy, f"{100 * row.accuracy:.1f}")
        for row in rows
    ]
    print(
        format_table(
            ("privacy", "strategy", "accuracy %"),
            table_rows,
            title=f"Fn{args.function} accuracy vs privacy ({args.noise} noise)",
        )
    )
    return 0


def _cmd_privacy(args) -> int:
    rows = []
    for name in quest.ATTRIBUTES:
        for kind in NOISE_KINDS:
            randomizer = noise_for_privacy(
                kind, args.privacy, name.span, args.confidence
            )
            parameter = (
                f"alpha={randomizer.half_width:,.0f}"
                if kind == "uniform"
                else f"sigma={randomizer.sigma:,.0f}"
            )
            achieved = privacy_of_randomizer(randomizer, name.span, args.confidence)
            rows.append((name.name, kind, parameter, f"{100 * achieved:.1f}"))
    print(
        format_table(
            ("attribute", "noise", "parameter", "privacy %"),
            rows,
            title=(
                f"Noise parameters for privacy {args.privacy:g} at "
                f"{100 * args.confidence:g}% confidence"
            ),
        )
    )
    return 0


def _cmd_breach(args) -> int:
    import numpy as np

    from repro.core.breach import amplification_factor, breach_analysis
    from repro.core.histogram import HistogramDistribution

    table = quest.generate(args.n, function=1, seed=args.seed)
    attribute = table.attribute(args.attribute)
    partition = attribute.partition(args.intervals)
    prior = HistogramDistribution.from_values(table.column(args.attribute), partition)

    rows = []
    for kind in NOISE_KINDS:
        for level in args.levels:
            randomizer = noise_for_privacy(kind, level, attribute.span)
            analysis = breach_analysis(
                prior, randomizer, rho1=args.rho1, rho2=args.rho2
            )
            gamma = amplification_factor(partition, randomizer)
            rows.append(
                (
                    kind,
                    f"{level:g}",
                    f"{analysis.worst_posterior:.3f}",
                    "yes" if analysis.breached else "no",
                    "inf" if np.isinf(gamma) else f"{gamma:.3g}",
                )
            )
    print(
        format_table(
            ("noise", "privacy", "worst posterior", "breach?", "amplification"),
            rows,
            title=(
                f"Worst-case ({args.rho1:g}, {args.rho2:g}) breach analysis "
                f"on {args.attribute!r}"
            ),
        )
    )
    return 0


def _cmd_bench_run(args) -> int:
    from repro.bench import run_experiments
    from repro.bench.registry import default_benchmarks_dir
    from repro.experiments.config import bench_scale

    benchmarks_dir = args.benchmarks_dir or default_benchmarks_dir()
    # The committed benchmarks/results/ tables are reference views at the
    # canonical seeds and scale 1; an off-seed or off-scale run must not
    # silently overwrite them.
    canonical = args.seed is None and args.scale is None and bench_scale() == 1.0
    results_dir = (
        None if args.no_tables or not canonical else benchmarks_dir / "results"
    )
    if not args.no_tables and not canonical:
        print(
            "note: non-canonical seed/scale — skipping benchmarks/results/ "
            "table refresh (JSON artifacts are still written)",
            file=sys.stderr,
        )
    artifacts = run_experiments(
        ids=args.ids,
        tags=args.tags,
        jobs=args.jobs,
        artifacts_dir=args.out,
        benchmarks_dir=benchmarks_dir,
        results_dir=results_dir,
        base_seed=args.seed,
        scale=args.scale,
        verbose=args.verbose,
    )
    rows = [
        (
            a.experiment_id,
            a.status,
            f"{a.timing['wall_seconds']:.3f}",
            f"{a.timing['peak_rss_kb'] / 1024:.0f}",
            str(len(a.metrics)),
        )
        for a in artifacts
    ]
    print(
        format_table(
            ("experiment", "status", "wall s", "peak rss MB", "metrics"),
            rows,
            title=f"bench run: {len(artifacts)} experiment(s), jobs={args.jobs}",
        )
    )
    failed = [a.experiment_id for a in artifacts if a.status != "ok"]
    if failed:
        for artifact in artifacts:
            if artifact.status != "ok" and artifact.error:
                print(f"\n--- {artifact.experiment_id} failed ---", file=sys.stderr)
                print(artifact.error.rstrip(), file=sys.stderr)
        print(f"\nFAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"\nartifacts written to {args.out}/")
    return 0


def _cmd_bench_list(args) -> int:
    from repro.bench import REGISTRY, discover

    discover(args.benchmarks_dir)
    specs = REGISTRY.select(tags=args.tags)
    rows = [
        (spec.id, ",".join(spec.tags), str(spec.seed), spec.title)
        for spec in specs
    ]
    print(
        format_table(
            ("id", "tags", "seed", "title"),
            rows,
            title=f"{len(specs)} registered experiment(s)",
        )
    )
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench import REGISTRY, compare_dirs, discover

    # floors are declared on @experiment: discover the registry the same
    # way `bench run` does and check every candidate against it
    discover()
    report = compare_dirs(
        args.baseline,
        args.candidate,
        wall_factor=args.fail_on_regression,
        metric_rtol=args.metric_rtol,
        wall_action="warn" if args.wall_warn_only else "fail",
        floors={spec.id: spec.floors for spec in REGISTRY.select()},
    )
    print(report.format())
    return 0 if report.passed else 1


def _estimate_table(name: str, edges, probs, n_seen: int, extra: str = "") -> str:
    """Shared ASCII rendering of one attribute estimate (serve/ingest)."""
    import numpy as np

    edges = np.asarray(edges, dtype=float)
    probs = np.asarray(probs, dtype=float)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    peak = max(float(probs.max()), 1e-9)
    rows = [
        (f"{mid:g}", f"{p:.4f}", "#" * int(round(30 * p / peak)))
        for mid, p in zip(midpoints, probs)
    ]
    return format_table(
        ("midpoint", "probability", ""),
        rows,
        title=f"Estimated distribution of {name!r} ({n_seen} records){extra}",
    )


def _by_class_line(name: str, by_class: dict) -> str:
    """One summary line of per-class record counts (serve/ingest)."""
    parts = []
    for key, count in by_class.items():
        label = "unlabeled" if key == "unlabeled" else f"class {key}"
        parts.append(f"{label}={count}")
    return f"per-class records for {name!r}: " + ", ".join(parts)


def _load_values(path: Path):
    """Read values: a text column, a JSON list, or a JSON column dict.

    Returns a 1-D array for single-column files, or — for a ``.json``
    file holding ``{attribute: [values...]}`` — a dict of equal-length
    columns (a *full-row* batch: what a ``--train`` server's labeled
    ingest requires when it collects several attributes).
    """
    import json

    from repro.utils.validation import check_1d_array

    path = Path(path)
    if not path.is_file():
        raise ReproError(f"values file {str(path)!r} does not exist")
    if path.suffix == ".json":
        try:
            values = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ReproError(f"values file {str(path)!r}: {exc}") from exc
        if isinstance(values, dict):
            if not values:
                raise ReproError(
                    f"values file {str(path)!r} holds an empty column dict"
                )
            columns = {
                name: check_1d_array(column, f"values[{name!r}]")
                for name, column in values.items()
            }
            lengths = {column.size for column in columns.values()}
            if len(lengths) > 1:
                raise ReproError(
                    f"values file {str(path)!r}: full-row columns must share "
                    f"one length, got {sorted(lengths)}"
                )
            return columns
    else:
        text = path.read_text().split()
        try:
            values = [float(token) for token in text]
        except ValueError as exc:
            raise ReproError(f"values file {str(path)!r}: {exc}") from exc
    return check_1d_array(values, "values")


def _load_fault_plan(raw):
    """``--fault-plan VALUE``: inline JSON when it starts with ``{``, else a file."""
    import json

    from repro.service.faults import FaultPlan

    if raw is None:
        return None
    text = str(raw).strip()
    if not text.startswith("{"):
        path = Path(text)
        if not path.is_file():
            raise ReproError(f"fault plan file {text!r} does not exist")
        text = path.read_text()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"--fault-plan is not valid JSON: {exc}") from exc
    return FaultPlan.from_spec(spec)


@contextlib.contextmanager
def _graceful_sigterm():
    """Route SIGTERM through the ``KeyboardInterrupt`` shutdown path.

    ``kill <pid>`` (systemd stop, docker stop, an operator) must run
    the same drain-and-persist sequence as Ctrl-C — the default SIGTERM
    action would kill the coordinator without unwinding ``finally``
    blocks, orphaning worker processes and losing their final drains.
    The previous handler is restored on exit so a ``main()`` called
    from tests leaves no process-global state behind.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # signal handlers can only be installed in the main thread
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _serve_cluster(args) -> int:
    """``ppdm serve --workers N``: coordinator + worker-process cluster."""
    import json

    from repro.service.cluster import start_cluster

    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    if args.snapshot:
        raise ReproError(
            "--workers starts fresh worker processes and cannot restore "
            "--snapshot state; start the cluster from --spec "
            "(use --snapshot-dir for per-worker crash recovery)"
        )
    if args.max_requests is not None:
        raise ReproError("--max-requests is not supported with --workers")
    if not args.spec:
        raise ReproError("serve --workers needs --spec")
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ReproError(f"spec file {str(spec_path)!r} does not exist")
    try:
        spec = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"spec file {str(spec_path)!r}: {exc}") from exc
    if args.shards is not None:
        # workers keep the spec's (or overridden) intra-process striping;
        # the coordinator's shard layout is one slot per worker
        spec["shards"] = args.shards
    if args.train and int(spec.get("classes", 0) or 0) < 1:
        raise ReproError(
            "--train needs a class-aware service: set \"classes\" in "
            "the spec (or snapshot) to the number of class labels"
        )
    supervisor = start_cluster(
        spec,
        n_workers=args.workers,
        host=args.host,
        port=args.port,
        train=args.train,
        sync_interval=args.sync_interval,
        snapshot_dir=args.snapshot_dir,
        snapshot_interval=args.snapshot_interval,
        faults=_load_fault_plan(args.fault_plan),
        max_inflight=args.max_inflight,
        codec=_CODEC_BY_FLAG[args.codec],
    )
    result = None
    try:
        with _graceful_sigterm():
            supervisor.wait_ready()
            print(
                f"coordinating {args.workers} worker(s) on {supervisor.url} "
                f"(sync interval {args.sync_interval:g}s)"
            )
            for worker, url in enumerate(supervisor.worker_urls()):
                print(f"  worker {worker}: {url}  (POST /ingest here)")
            print(
                "endpoints: /healthz /cluster /attributes /stats /estimate "
                "/partial" + (" /train /model" if args.train else "")
            )
            supervisor.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        result = supervisor.shutdown()
    if result is not None and not result["ok"]:
        # a worker lost its final drain (or its slot was down): surface
        # the loss instead of exiting 0 as if the union were complete
        reasons = "; ".join(
            f"worker {failure['worker']}: {failure['reason']}"
            for failure in result["failures"]
        )
        print(f"error: cluster shutdown was not clean: {reasons}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import json

    from repro.service import (
        AggregationService,
        ServiceHTTPServer,
        TrainingService,
        mining_from_spec,
        service_from_spec,
    )

    if args.workers is not None:
        return _serve_cluster(args)
    if args.codec != "none":
        raise ReproError(
            "--codec compresses worker partial pushes; it needs --workers"
        )
    if args.snapshot_dir is not None:
        raise ReproError("--snapshot-dir is for --workers; use --snapshot")
    if args.snapshot_interval is not None and not args.snapshot:
        raise ReproError("--snapshot-interval needs --snapshot to write to")

    from repro.service.resilience import (
        SnapshotManager,
        previous_snapshot_path,
        recover_service,
    )

    mining = None
    snapshot = Path(args.snapshot) if args.snapshot else None
    if snapshot is not None and (
        snapshot.is_file() or previous_snapshot_path(snapshot).is_file()
    ):
        # newest valid generation wins; corrupt ones are rejected loudly
        # (SnapshotError when none loads -> clean error exit)
        service, recovered_from = recover_service(snapshot)
        if args.shards is not None and args.shards != service.n_shards:
            # partials are merged state, so re-sharding on restart is
            # safe: rebuild the service at the requested width
            payload = service.snapshot()
            payload["n_shards"] = args.shards
            service = AggregationService.restore(payload)
        print(
            f"restored service from snapshot {recovered_from}"
            + (
                "  (note: --spec ignored; the snapshot defines the schema)"
                if args.spec
                else ""
            )
        )
    elif args.spec:
        spec_path = Path(args.spec)
        if not spec_path.is_file():
            raise ReproError(f"spec file {str(spec_path)!r} does not exist")
        try:
            spec = json.loads(spec_path.read_text())
        except json.JSONDecodeError as exc:
            raise ReproError(f"spec file {str(spec_path)!r}: {exc}") from exc
        if args.shards is not None:
            spec["shards"] = args.shards
        service = service_from_spec(spec)
        if "mining" in spec:
            mining = mining_from_spec(spec["mining"])
    else:
        raise ReproError("serve needs --spec (or an existing --snapshot)")

    training = None
    if args.train:
        if service.classes < 1:
            raise ReproError(
                "--train needs a class-aware service: set \"classes\" in "
                "the spec (or snapshot) to the number of class labels"
            )
        training = TrainingService(service)
    server = ServiceHTTPServer(
        service, args.host, args.port, snapshot_path=snapshot,
        training=training, mining=mining,
        max_inflight=args.max_inflight,
        faults=_load_fault_plan(args.fault_plan),
    )
    records = sum(service.n_seen().values())
    print(
        f"serving {len(service.attributes)} attribute(s) "
        f"({', '.join(service.attributes)}) on {server.url} "
        f"with {service.n_shards} shard(s)"
        + (f" and {service.classes} class(es)" if service.classes else "")
        + f"; {records} record(s) loaded"
    )
    if mining is not None:
        print(
            f"mining enabled: {mining.n_items} item(s), keep_prob="
            f"{mining.response.keep_prob:g}, {len(mining.shards)} shard(s)"
        )
    print(
        "endpoints: /healthz /attributes /stats /estimate /ingest /snapshot"
        + (" /train /model" if training is not None else "")
        + (" /mine /rules" if mining is not None else "")
    )
    manager = None
    if args.snapshot_interval is not None:
        manager = SnapshotManager(server.persist, args.snapshot_interval)
        manager.start()
        print(f"auto-snapshot every {args.snapshot_interval:g}s")
    try:
        with _graceful_sigterm():
            server.serve_forever(max_requests=args.max_requests)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.begin_drain()
        if manager is not None:
            manager.stop(final=False)  # the exit-time persist follows
        if snapshot is not None:
            # through the server's snapshot lock, so an in-flight
            # POST /snapshot cannot interleave with the exit-time save
            server.persist()
            print(f"snapshot persisted to {snapshot}")
    return 0


class _KeepAliveClient:
    """One persistent HTTP connection to a running aggregation server.

    ``ppdm ingest`` used to open a fresh connection per request; a bulk
    run (``--repeat``) now streams every batch over one keep-alive
    socket (the server speaks HTTP/1.1).  A dropped connection — server
    restart, idle timeout — is transparently re-dialed once, but only
    when that cannot double-count: GETs always, POSTs only if the
    request was never fully sent (``POST /ingest`` is not idempotent;
    once the body is on the wire the server may have absorbed it, so a
    lost *response* surfaces as an error instead of a silent re-send).

    A 429 (admission control) or 503 (draining/fault) response that
    carries ``Retry-After`` is different: the server's contract is that
    such a response absorbed *nothing* from the body, so the client
    honors the header — sleep, then re-send the identical request, up
    to a bounded number of waits — and no admitted batch is ever
    dropped or double-counted.  A 503 *without* ``Retry-After`` (e.g. a
    cluster /train that needs an unreachable worker) still fails fast.
    """

    def __init__(self, base_url: str) -> None:
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme == "http":
            conn_cls, default_port = http.client.HTTPConnection, 80
        elif parts.scheme == "https":
            conn_cls, default_port = http.client.HTTPSConnection, 443
        else:
            raise ReproError(
                f"unsupported URL scheme {parts.scheme!r} (http or https)"
            )
        # keep any path prefix (server behind a reverse proxy)
        self._prefix = parts.path.rstrip("/")
        self._conn = conn_cls(
            parts.hostname or "127.0.0.1", parts.port or default_port,
            timeout=60,
        )

    #: bounded Retry-After waits per request (overload must end sometime)
    MAX_OVERLOAD_WAITS = 8

    def request(
        self, method: str, path: str, body: bytes = None,
        content_type: str = "application/json",
        content_encoding: str | None = None,
    ) -> dict:
        import http.client
        import json
        import time

        headers = {"Content-Type": content_type} if body is not None else {}
        if content_encoding is not None:
            headers["Content-Encoding"] = content_encoding
        path = self._prefix + path
        overload_waits = 0
        while True:
            for attempt in (1, 2):
                sent = False
                try:
                    self._conn.request(
                        method, path, body=body, headers=headers
                    )
                    sent = True
                    response = self._conn.getresponse()
                    raw = response.read()
                    status = response.status
                    retry_after = response.getheader("Retry-After")
                    break
                except (http.client.HTTPException, ConnectionError, OSError) as exc:
                    self._conn.close()  # drop the stale socket
                    # redial once — but never re-send a request the server
                    # may already have processed (a non-GET that failed
                    # after the body went out): /ingest is not idempotent
                    if attempt == 2 or (sent and method != "GET"):
                        raise ReproError(
                            f"server request {path} failed: {exc}"
                        ) from exc
            if (
                status in (429, 503)
                and retry_after is not None
                and overload_waits < self.MAX_OVERLOAD_WAITS
            ):
                # Retry-After is the server's promise that nothing of
                # this body was absorbed: waiting and re-sending the
                # identical request cannot double-count
                overload_waits += 1
                try:
                    delay = float(retry_after)
                except ValueError:
                    delay = 1.0
                time.sleep(min(max(delay, 0.0), 30.0))
                continue
            break
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            payload = {}
        if status >= 400:
            detail = payload.get("error") if isinstance(payload, dict) else None
            raise ReproError(
                f"server request {path} failed: {detail or f'HTTP {status}'}"
            )
        return payload

    def get(self, path: str) -> dict:
        return self.request("GET", path)

    def post(self, path: str, body: bytes,
             content_type: str = "application/json",
             content_encoding: str | None = None) -> dict:
        return self.request("POST", path, body, content_type, content_encoding)

    def close(self) -> None:
        self._conn.close()


#: ``--codec`` flag values -> wire codec tokens ("none" is HTTP identity)
_CODEC_BY_FLAG = {"none": "identity", "zlib": "zlib", "zstd": "zstd"}


def _compressed_for_flag(body: bytes, flag: str) -> tuple:
    """Compress a pre-encoded body per ``--codec``; return ``(body, encoding)``.

    ``encoding`` is the ``Content-Encoding`` token to send, or ``None``
    for ``--codec none`` (identity bodies stay unlabeled, byte-identical
    to every release before the codec flag existed).
    """
    from repro.service.wire import compress_payload

    codec = _CODEC_BY_FLAG[flag]
    if codec == "identity":
        return body, None
    return compress_payload(body, codec), codec


def _post_repeated(
    base: str, client: _KeepAliveClient, body: bytes, content_type: str,
    repeat: int, concurrency: int, content_encoding: str | None = None,
) -> tuple:
    """POST one pre-encoded ``/ingest`` body ``repeat`` times.

    The load-generation core shared by every ``ppdm ingest --url`` wire:
    the body is encoded once by the caller (and, with
    ``content_encoding``, already compressed once) and re-sent as-is,
    so a ``--repeat`` run measures wire + server cost, not client
    re-serialization.  Returns ``(replies, elapsed_seconds)``.
    """
    import time
    from concurrent.futures import ThreadPoolExecutor

    def drive(client_, n_requests):
        return [
            client_.post("/ingest", body, content_type, content_encoding)
            for _ in range(n_requests)
        ]

    n_workers = min(concurrency, repeat)
    start = time.perf_counter()
    if n_workers == 1:
        replies = drive(client, repeat)
    else:
        shares = [
            repeat // n_workers + (1 if w < repeat % n_workers else 0)
            for w in range(n_workers)
        ]

        def worker(share):
            extra = _KeepAliveClient(base)
            try:
                return drive(extra, share)
            finally:
                extra.close()

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            replies = [r for rs in pool.map(worker, shares) for r in rs]
    return replies, time.perf_counter() - start


def _ingest_baskets(args) -> int:
    """``ppdm ingest --baskets``: MASK-randomize locally, POST v4 frames."""
    import json

    from repro.mining import RandomizedResponse, transactions_to_matrix
    from repro.service.wire import CONTENT_TYPE_BASKETS, encode_baskets
    from repro.utils.rng import ensure_rng

    offending = [
        flag
        for flag, on in (
            ("--attribute", args.attribute is not None),
            ("--class-label", args.class_label is not None),
            ("--estimate", args.estimate),
            ("--snapshot", args.snapshot is not None),
            ("--wire columns", args.wire == "columns"),
        )
        if on
    ]
    if offending:
        raise ReproError(
            f"{', '.join(offending)} cannot be combined with --baskets: "
            "basket ingestion speaks the v4 basket wire to a running "
            "server's mining tier, not the attribute shards"
        )
    if args.url is None:
        raise ReproError(
            "--baskets needs --url (a server started with a \"mining\" "
            "spec section); basket counters are not snapshot state"
        )
    if args.concurrency < 1 or args.repeat < 1:
        raise ReproError("--concurrency and --repeat must be >= 1")
    path = Path(args.values)
    if not path.is_file():
        raise ReproError(f"values file {str(path)!r} does not exist")
    try:
        transactions = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"values file {str(path)!r}: {exc}") from exc
    if not isinstance(transactions, list):
        raise ReproError(
            f"values file {str(path)!r} must hold a JSON list of "
            "transactions (each a list of item ids)"
        )

    base = args.url.rstrip("/")
    client = _KeepAliveClient(base)
    try:
        mining = client.get("/stats").get("mining")
        if mining is None:
            raise ReproError(
                "the server was started without mining; add a \"mining\" "
                "section to the serve spec"
            )
        n_items = int(mining["n_items"])
        keep_prob = float(mining["keep_prob"])
        if args.mask_p is not None and abs(args.mask_p - keep_prob) > 1e-12:
            raise ReproError(
                f"--mask-p {args.mask_p:g} does not match the server's "
                f"keep_prob {keep_prob:g}; the server inverts the MASK "
                "channel it was configured with"
            )
        matrix = transactions_to_matrix(transactions, n_items)
        if args.already_randomized:
            disclosed = matrix
        else:
            response = RandomizedResponse(keep_prob=keep_prob)
            disclosed = response.randomize(matrix, seed=ensure_rng(args.seed))
        body = encode_baskets(disclosed, shard=args.shard)
        body, content_encoding = _compressed_for_flag(body, args.codec)
        replies, elapsed = _post_repeated(
            base, client, body, CONTENT_TYPE_BASKETS,
            args.repeat, args.concurrency, content_encoding,
        )
        ingested = sum(reply["ingested"] for reply in replies)
        baskets = max(reply["baskets"] for reply in replies)
        print(
            f"ingested {ingested} randomized basket(s) over {n_items} "
            f"item(s) in {len(replies)} request(s); server now holds "
            f"{baskets} total"
        )
        if args.repeat > 1:
            rate = ingested / max(elapsed, 1e-9)
            print(
                f"load run: {args.concurrency} connection(s), "
                f"{elapsed:.3f} s, {rate:,.0f} baskets/s"
            )
    finally:
        client.close()
    return 0


def _cmd_ingest(args) -> int:
    import json

    from repro.utils.rng import ensure_rng

    if args.mask_p is not None and not args.baskets:
        raise ReproError("--mask-p only applies to --baskets ingestion")
    if args.baskets:
        return _ingest_baskets(args)
    if (args.url is None) == (args.snapshot is None):
        raise ReproError("ingest needs exactly one of --url or --snapshot")
    if args.url is None and (
        args.wire != "json"
        or args.codec != "none"
        or args.concurrency != 1
        or args.repeat != 1
    ):
        raise ReproError(
            "--wire/--codec/--concurrency/--repeat generate load against a "
            "running server; they need --url"
        )
    if args.concurrency < 1 or args.repeat < 1:
        raise ReproError("--concurrency and --repeat must be >= 1")
    loaded = _load_values(args.values)
    if isinstance(loaded, dict):
        columns = loaded
        if args.attribute is not None and args.attribute not in columns:
            raise ReproError(
                f"--attribute {args.attribute!r} is not a column of the "
                f"values file ({', '.join(columns)})"
            )
    else:
        if args.attribute is None:
            raise ReproError(
                "--attribute is required for single-column values files "
                "(full-row JSON column dicts name their own attributes)"
            )
        columns = {args.attribute: loaded}
    if args.estimate and args.attribute is None:
        raise ReproError("--estimate needs --attribute (which one to display)")
    n_rows = next(iter(columns.values())).size
    classes = None
    if args.class_label is not None:
        classes = [args.class_label] * n_rows

    if args.snapshot is not None:
        from repro.service import AggregationService

        snapshot = Path(args.snapshot)
        if not snapshot.is_file():
            raise ReproError(
                f"snapshot {str(snapshot)!r} does not exist; start it with "
                "'ppdm serve --spec ... --snapshot ...' or create it from a "
                "running server's POST /snapshot"
            )
        service = AggregationService.load(snapshot)
        rng = ensure_rng(args.seed)
        batch = {}
        for name, column in columns.items():
            try:
                spec = service.spec(name)
            except ReproError:
                raise ReproError(
                    f"unknown attribute {name!r}; the service collects "
                    f"{', '.join(service.attributes)}"
                ) from None
            batch[name] = (
                column
                if args.already_randomized
                else spec.randomizer.randomize(column, seed=rng)
            )
        ingested = service.ingest(batch, shard=args.shard, classes=classes)
        service.save(snapshot)
        if len(batch) == 1:
            total = service.n_seen(args.attribute or next(iter(batch)))
            name = args.attribute or next(iter(batch))
            print(f"ingested {ingested} record(s); {name!r} now holds {total}")
        else:
            print(
                f"ingested {ingested} record(s) across {len(batch)} "
                f"attribute(s) ({n_rows} full row(s))"
            )
        if service.classes:
            for name in batch:
                print(_by_class_line(name, service.n_seen_by_class(name)))
        if args.estimate:
            spec = service.spec(args.attribute)
            result = service.estimate(args.attribute)
            service.save(snapshot)  # persist the refreshed warm start
            print(
                _estimate_table(
                    args.attribute,
                    spec.x_partition.edges,
                    result.distribution.probs,
                    service.n_seen(args.attribute),
                    extra=f", {result.n_iterations} sweep(s)",
                )
            )
        return 0

    # --url: act as a randomizing client pool against a running server,
    # over persistent keep-alive connections (one per worker)
    from repro.core.privacy import noise_for_privacy
    from repro.service.wire import CONTENT_TYPE_COLUMNS, encode_columns

    base = args.url.rstrip("/")
    client = _KeepAliveClient(base)
    try:
        if args.already_randomized:
            batch = columns
        else:
            schema = {a["name"]: a for a in client.get("/attributes")["attributes"]}
            for name in columns:
                if name not in schema:
                    raise ReproError(
                        f"unknown attribute {name!r}; the server collects "
                        f"{', '.join(schema)}"
                    )
            rng = ensure_rng(args.seed)
            batch = {}
            for name, column in columns.items():
                attr = schema[name]
                randomizer = noise_for_privacy(
                    attr["noise"], attr["privacy"], attr["high"] - attr["low"]
                )
                batch[name] = randomizer.randomize(column, seed=rng)

        # the body is encoded once and reused by every request, so the
        # run measures wire + server cost, not client re-serialization
        if args.wire == "columns":
            body = encode_columns(batch, shard=args.shard, classes=classes)
            content_type = CONTENT_TYPE_COLUMNS
        else:
            payload = {
                "batch": {
                    name: column.tolist() for name, column in batch.items()
                }
            }
            if args.shard is not None:
                payload["shard"] = args.shard
            if classes is not None:
                payload["classes"] = classes
            body = json.dumps(payload).encode()
            content_type = "application/json"

        body, content_encoding = _compressed_for_flag(body, args.codec)
        replies, elapsed = _post_repeated(
            base, client, body, content_type, args.repeat, args.concurrency,
            content_encoding,
        )

        ingested = sum(reply["ingested"] for reply in replies)
        records = max(reply["records"] for reply in replies)
        print(
            f"ingested {ingested} record(s) in {len(replies)} request(s) "
            f"({args.wire} wire); server now holds {records} total"
        )
        if args.repeat > 1:
            rate = ingested / max(elapsed, 1e-9)
            print(
                f"load run: {args.concurrency} connection(s), "
                f"{elapsed:.3f} s, {rate:,.0f} records/s"
            )
        if classes is not None:
            # only labeled runs need the per-class summary (and the
            # /stats round-trip it costs)
            stats = client.get("/stats")
            for name in batch:
                by_class = stats.get("records_by_class", {}).get(name)
                if by_class:
                    print(_by_class_line(name, by_class))
        if args.estimate:
            from urllib.parse import quote

            estimate = client.get(f"/estimate?attribute={quote(args.attribute)}")
            print(
                _estimate_table(
                    args.attribute,
                    estimate["edges"],
                    estimate["probs"],
                    estimate["n_seen"],
                    extra=f", {estimate['n_iterations']} sweep(s)",
                )
            )
    finally:
        client.close()
    return 0


def _cmd_train(args) -> int:
    import json

    from repro import serialize
    from repro.service.training import TRAINING_STRATEGIES

    if args.strategy not in TRAINING_STRATEGIES:
        raise ReproError(
            f"--strategy must be one of {TRAINING_STRATEGIES}, "
            f"got {args.strategy!r}"
        )
    client = _KeepAliveClient(args.url.rstrip("/"))
    try:
        summary = client.post(
            "/train", json.dumps({"strategy": args.strategy}).encode()
        )
        print(
            f"trained {summary['strategy']} tree on {summary['n_train']} "
            f"labeled record(s): {summary['n_nodes']} node(s), depth "
            f"{summary['depth']}, {summary['fit_seconds']:.3f} s"
        )
        if args.save or args.show_tree:
            # the serialized tree can be large; only fetch when used
            payload = client.get(f"/model?strategy={args.strategy}")
            if args.save:
                path = Path(args.save)
                path.write_text(json.dumps(payload))
                print(f"model saved to {path}")
            if args.show_tree:
                model = serialize.from_jsonable(payload)
                print(model.tree.export_text())
    finally:
        client.close()
    return 0


def _cmd_mine(args) -> int:
    import json

    from repro import serialize

    client = _KeepAliveClient(args.url.rstrip("/"))
    try:
        summary = client.post(
            "/mine",
            json.dumps({
                "min_support": args.min_support,
                "min_confidence": args.min_confidence,
            }).encode(),
        )
        print(
            f"mined {summary['n_itemsets']} frequent itemset(s) and "
            f"{summary['n_rules']} rule(s) from {summary['n_baskets']} "
            f"randomized basket(s) in {summary['mine_seconds']:.3f} s "
            f"(support >= {summary['min_support']:g}, "
            f"confidence >= {summary['min_confidence']:g})"
        )
        if args.save or args.show_rules:
            # the serialized rule set can be large; only fetch when used
            payload = client.get("/rules")
            if args.save:
                path = Path(args.save)
                path.write_text(json.dumps(payload))
                print(f"rules saved to {path}")
            if args.show_rules:
                result = serialize.from_jsonable(payload)
                rows = [
                    (
                        "{%s}" % ", ".join(map(str, sorted(rule.antecedent))),
                        "{%s}" % ", ".join(map(str, sorted(rule.consequent))),
                        f"{rule.support:.4f}",
                        f"{rule.confidence:.4f}",
                        f"{rule.lift:.3f}",
                    )
                    for rule in result.rules
                ]
                print(
                    format_table(
                        ("antecedent", "consequent", "support",
                         "confidence", "lift"),
                        rows,
                        title=(
                            f"{len(rows)} association rule(s) over "
                            f"{result.n_baskets} basket(s)"
                        ),
                    )
                )
    finally:
        client.close()
    return 0


def _cmd_quest_info(args) -> int:
    rows = [
        (
            a.name,
            f"{a.low:g}",
            f"{a.high:g}",
            "discrete" if a.discrete else "continuous",
        )
        for a in quest.ATTRIBUTES
    ]
    print(format_table(("attribute", "low", "high", "kind"), rows,
                       title="Quest attributes"))
    table = quest.generate(args.n, function=args.function, seed=args.seed)
    frac = float(table.labels.mean())
    print(f"\nFn{args.function}: Group A fraction on {args.n} records = {frac:.3f}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        DEFAULT_BASELINE,
        REGISTRY,
        lint_project,
        render_json,
        render_text,
        walk_project,
        write_baseline,
    )
    from repro.analysis.walker import default_project_root
    from repro.exceptions import AnalysisError

    if args.list_rules:
        for spec in REGISTRY.checkers():
            print(f"{spec.id}: {spec.title}")
            for rule in spec.rules:
                print(f"  {rule.id} [{rule.severity}] {rule.summary}")
        return 0
    if args.write_baseline and args.rule:
        raise AnalysisError(
            "--write-baseline cannot be combined with --rule: rewriting "
            "from a rule subset would drop accepted baseline entries for "
            "every unselected rule"
        )
    root = Path(args.root) if args.root is not None else default_project_root()
    baseline = (
        Path(args.baseline) if args.baseline is not None
        else root / DEFAULT_BASELINE
    )
    project = walk_project(root)
    result = lint_project(
        project=project, rules=args.rule or None, baseline=baseline
    )
    if args.write_baseline:
        write_baseline(result, baseline)
        print(
            f"baseline written to {baseline} "
            f"({len(result.findings)} finding(s) accepted)"
        )
        return 0
    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        sys.stdout.write(render_text(result))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="ppdm",
        description="Reproduction of 'Privacy-Preserving Data Mining' (SIGMOD 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="distribution reconstruction demo")
    p.add_argument("--shape", choices=("plateau", "triangles"), default="plateau")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--intervals", type=int, default=20)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("classify", help="strategy comparison on Quest functions")
    p.add_argument("--functions", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument(
        "--strategies", nargs="+", choices=STRATEGIES,
        default=["original", "randomized", "global", "byclass"],
    )
    p.add_argument("--train", type=int, default=10_000)
    p.add_argument("--test", type=int, default=3_000)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="accuracy vs privacy sweep")
    p.add_argument("--function", type=int, default=3)
    p.add_argument("--levels", type=float, nargs="+", default=[0.25, 0.5, 1.0, 2.0])
    p.add_argument(
        "--strategies", nargs="+", choices=STRATEGIES,
        default=["randomized", "byclass"],
    )
    p.add_argument("--train", type=int, default=10_000)
    p.add_argument("--test", type=int, default=3_000)
    _add_noise_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("privacy", help="noise parameters for a privacy target")
    p.add_argument("--privacy", type=float, default=1.0)
    p.add_argument("--confidence", type=float, default=0.95)
    p.set_defaults(func=_cmd_privacy)

    p = sub.add_parser("breach", help="worst-case privacy-breach analysis")
    p.add_argument("--attribute", default="age")
    p.add_argument("--levels", type=float, nargs="+", default=[0.25, 1.0])
    p.add_argument("--rho1", type=float, default=0.06)
    p.add_argument("--rho2", type=float, default=0.5)
    p.add_argument("--intervals", type=int, default=24)
    p.add_argument("--n", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_breach)

    p = sub.add_parser(
        "serve", help="run the sharded aggregation service over HTTP"
    )
    p.add_argument(
        "--spec", type=Path, default=None,
        help="JSON deployment spec (attributes, domains, privacy targets)",
    )
    p.add_argument(
        "--snapshot", type=Path, default=None,
        help="snapshot file: restored at startup if present, persisted on "
        "exit and on POST /snapshot",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000, help="0 picks a free port")
    p.add_argument(
        "--shards", type=int, default=None,
        help="override the spec's ingestion shard count",
    )
    p.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after N connections (each keep-alive connection may "
        "carry many requests; smoke tests; default: run until ^C)",
    )
    p.add_argument(
        "--train", action="store_true",
        help="enable POST /train and GET /model (needs a class-aware "
        'spec: "classes" >= 1)',
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="spawn N worker processes and serve as their coordinator: "
        "workers ingest on their own ports and ship merged partials "
        "upstream; incompatible with --snapshot and --max-requests",
    )
    p.add_argument(
        "--sync-interval", type=float, default=5.0,
        help="seconds between worker partial pushes (--workers only); "
        "/estimate and /train also pull on demand",
    )
    p.add_argument(
        "--snapshot-interval", type=float, default=None,
        help="auto-snapshot period in seconds (atomic write, one rotated "
        "generation kept); needs --snapshot, or --snapshot-dir with "
        "--workers",
    )
    p.add_argument(
        "--snapshot-dir", type=Path, default=None,
        help="--workers only: directory of per-worker snapshot files "
        "(worker-<i>.json); a supervised restart recovers the worker's "
        "cumulative state instead of resetting its slot",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None,
        help="admission control: bound on concurrently-processing POST "
        "/ingest bodies; past it the server sheds load with 429 + "
        "Retry-After (nothing absorbed; clients re-send)",
    )
    p.add_argument(
        "--fault-plan", default=None,
        help="seeded chaos: a fault-plan spec as inline JSON or a file "
        "path (also honored from PPDM_FAULT_PLAN; see "
        "repro.service.faults)",
    )
    p.add_argument(
        "--codec", choices=("none", "zlib", "zstd"), default="none",
        help="--workers only: compress worker partial pushes to the "
        "coordinator and label them with Content-Encoding (zstd needs "
        "the zstandard package)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "ingest", help="randomize values locally and ingest them"
    )
    p.add_argument(
        "values", type=Path,
        help="values file: a text column, a JSON list, or a JSON "
        '{"attribute": [values...]} dict of full rows (what a --train '
        "server's labeled ingest requires across several attributes)",
    )
    p.add_argument(
        "--attribute", default=None,
        help="attribute to ingest into (required for single-column files; "
        "full-row JSON dicts name their own attributes)",
    )
    p.add_argument(
        "--url", default=None, help="running server, e.g. http://127.0.0.1:8000"
    )
    p.add_argument(
        "--snapshot", type=Path, default=None,
        help="offline mode: ingest into (and persist) a snapshot file",
    )
    p.add_argument(
        "--already-randomized", action="store_true",
        help="values are disclosures already; skip local randomization",
    )
    p.add_argument("--seed", type=int, default=None, help="randomization seed")
    p.add_argument(
        "--shard", type=int, default=None,
        help="pin the batch to one ingestion shard",
    )
    p.add_argument(
        "--class-label", type=int, default=None,
        help="class label attached to every record of the batch "
        "(class-aware services; feeds the per-class shard blocks)",
    )
    p.add_argument(
        "--wire", choices=("json", "columns"), default="json",
        help="ingest wire format (--url mode): curl-able JSON or binary "
        "columnar frames (application/x-ppdm-columns)",
    )
    p.add_argument(
        "--codec", choices=("none", "zlib", "zstd"), default="none",
        help="compress the request body and label it with Content-Encoding "
        "(--url mode; zstd needs the zstandard package on both ends)",
    )
    p.add_argument(
        "--concurrency", type=int, default=1,
        help="parallel persistent connections (--url mode load generation)",
    )
    p.add_argument(
        "--repeat", type=int, default=1,
        help="send the batch N times over kept-alive connections "
        "(--url mode load generation)",
    )
    p.add_argument(
        "--estimate", action="store_true",
        help="print the attribute's reconstructed distribution afterwards",
    )
    p.add_argument(
        "--baskets", action="store_true",
        help="values file is a JSON list of transactions (item-id lists): "
        "MASK-randomize locally and POST v4 basket frames to a "
        "mining-enabled server (--url mode only)",
    )
    p.add_argument(
        "--mask-p", type=float, default=None,
        help="expected MASK keep probability; must match the server's "
        "mining keep_prob (--baskets only; default: ask the server)",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "train", help="train a decision tree on a running server"
    )
    p.add_argument(
        "--url", required=True,
        help="running server with training enabled (ppdm serve --train)",
    )
    p.add_argument(
        "--strategy", default="byclass",
        help="training strategy: global, byclass (default), or local",
    )
    p.add_argument(
        "--save", type=Path, default=None,
        help="write the trained_tree snapshot (GET /model payload) here",
    )
    p.add_argument(
        "--show-tree", action="store_true",
        help="print the trained tree's split structure",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "mine", help="mine association rules on a running server"
    )
    p.add_argument(
        "--url", required=True,
        help='running server with mining enabled (a "mining" spec section)',
    )
    p.add_argument(
        "--min-support", type=float, default=0.2,
        help="minimum estimated support in (0, 1] (default: 0.2)",
    )
    p.add_argument(
        "--min-confidence", type=float, default=0.5,
        help="minimum rule confidence in (0, 1] (default: 0.5)",
    )
    p.add_argument(
        "--save", type=Path, default=None,
        help="write the mined_rules snapshot (GET /rules payload) here",
    )
    p.add_argument(
        "--show-rules", action="store_true",
        help="print the mined rules as a table",
    )
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("quest-info", help="describe the Quest workload")
    p.add_argument("--function", type=int, default=1)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_quest_info)

    p = sub.add_parser("bench", help="benchmark orchestration (run/list/compare)")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("run", help="run experiments, emit BENCH_*.json")
    b.add_argument("--ids", nargs="+", help="explicit experiment ids")
    b.add_argument("--tags", nargs="+", help="keep experiments with any of these tags")
    b.add_argument("--jobs", type=int, default=1, help="process-pool width")
    b.add_argument(
        "--out", type=Path, default=Path("benchmarks/artifacts"),
        help="artifact output directory (default: benchmarks/artifacts)",
    )
    b.add_argument(
        "--benchmarks-dir", type=Path, default=None,
        help="directory holding bench_*.py (default: ./benchmarks)",
    )
    b.add_argument(
        "--seed", type=int, default=None,
        help="derive per-experiment seeds from this base "
        "(default: each experiment's canonical seed)",
    )
    b.add_argument(
        "--scale", type=float, default=None,
        help="dataset-size multiplier overriding PPDM_BENCH_SCALE",
    )
    b.add_argument(
        "--no-tables", action="store_true",
        help="skip writing ASCII tables under benchmarks/results/",
    )
    b.add_argument("--verbose", action="store_true", help="print ASCII tables")
    b.set_defaults(func=_cmd_bench_run)

    b = bench_sub.add_parser("list", help="list registered experiments")
    b.add_argument("--tags", nargs="+", help="filter by tags")
    b.add_argument("--benchmarks-dir", type=Path, default=None)
    b.set_defaults(func=_cmd_bench_list)

    b = bench_sub.add_parser("compare", help="diff two artifact directories")
    b.add_argument("baseline", type=Path, help="baseline artifact directory")
    b.add_argument("candidate", type=Path, help="candidate artifact directory")
    b.add_argument(
        "--fail-on-regression", default="1.3x", metavar="FACTOR",
        help="wall-clock slack factor, e.g. 1.3x (default)",
    )
    b.add_argument(
        "--metric-rtol", type=float, default=1e-9,
        help="relative tolerance for metric drift (default: 1e-9; metrics "
        "are deterministic at fixed seed)",
    )
    b.add_argument(
        "--wall-warn-only", action="store_true",
        help="report baseline wall-clock regressions as warnings (shared CI "
        "runners); declared floors still fail",
    )
    b.set_defaults(func=_cmd_bench_compare)

    p = sub.add_parser(
        "lint",
        help="project-invariant static analysis (locks, determinism, "
        "wire format, exceptions)",
    )
    p.add_argument(
        "--rule", action="append", metavar="ID",
        help="check only this rule id (repeatable, e.g. --rule L001)",
    )
    p.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: <root>/tools/lint_baseline.txt)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--root", type=Path, default=None,
        help="repository root to analyze (default: auto-detected)",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline file",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list registered checkers and rules, then exit",
    )
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # deliberate library errors (bad ids, artifacts, scales, ...)
        # become one clean line; genuine bugs still traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
