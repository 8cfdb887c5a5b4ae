"""Server-side spans for the traced run, recorded without editing ``src/``.

:func:`install` wraps the public entry points of each layer in the
server process: the stdlib HTTP handler, the wire decoders as bound in
:mod:`repro.service.httpd`, the shard, support, service, engine,
training, mining and cluster entry points.  Each span carries the
request id the load generator sends in :data:`HEADER` (read by the
wrapped ``parse_request``) and the handler thread, so the generator can
join every server span to its client request.  Spans stay in memory
until the generator asks for them.
"""

from __future__ import annotations

import functools
import threading
import time

from stats import SERVER_SPAN

#: request-id header; the service ignores it, the wrapped parser reads it
HEADER = "X-Bench-Request"

_now = time.perf_counter


class Recorder:
    """In-memory span and count store shared by every wrapper."""

    def __init__(self) -> None:
        # list.append is atomic under the interpreter lock, so handler
        # threads record without a lock of their own
        self.spans: list = []
        self.counts: list = []
        self._local = threading.local()

    def request_id(self):
        return getattr(self._local, "rid", None)

    def begin(self, rid, start: float) -> None:
        self._local.rid = rid
        self._local.start = start

    def end(self) -> None:
        start = getattr(self._local, "start", None)
        if start is None:
            return
        self.spans.append(
            (SERVER_SPAN, self._local.rid, threading.get_ident(), start, _now())
        )
        self._local.rid = None
        self._local.start = None

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append(
            (name, self.request_id(), threading.get_ident(), start, end)
        )

    def count(self, name: str, value) -> None:
        self.counts.append((name, self.request_id(), value))

    def drain(self) -> dict:
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], []
        return {"spans": spans, "counts": counts}


def _timed(rec: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.span(name, start, _now())
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _timed_iter(rec: Recorder, fn):
    """Time each ``next()`` of a frame decoder as one ``wire.decode`` span."""

    @functools.wraps(fn)
    def wrapper(payload):
        frames = fn(payload)
        while True:
            start = _now()
            try:
                frame = next(frames)
            except StopIteration:
                rec.span("wire.decode", start, _now())
                return
            rec.span("wire.decode", start, _now())
            rec.count("wire.frames", 1)
            yield frame

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every traced layer entry point in this process."""
    import http.server

    from repro.core.engine import ReconstructionEngine
    from repro.service import httpd
    from repro.service.cluster import ClusterCoordinator
    from repro.service.mining import MiningService
    from repro.service.service import AggregationService
    from repro.service.shards import ShardSet
    from repro.service.training import TrainingService

    handler = http.server.BaseHTTPRequestHandler
    parse_request = handler.parse_request
    handle_one_request = handler.handle_one_request

    def traced_parse_request(self):
        start = _now()
        ok = parse_request(self)
        headers = getattr(self, "headers", None)
        rid = headers.get(HEADER) if ok and headers is not None else None
        rec.begin(rid, start)
        if rid is not None:
            length = headers.get("Content-Length")
            if length and length.isdigit():
                rec.count("wire.bytes_in", int(length))
        return ok

    def traced_handle_one_request(self):
        try:
            handle_one_request(self)
        finally:
            rec.end()

    handler.parse_request = traced_parse_request
    handler.handle_one_request = traced_handle_one_request

    httpd.decompress_payload = _timed(
        rec, "wire.decompress", httpd.decompress_payload
    )
    for name in ("iter_labeled_frames", "iter_labeled_ndjson",
                 "iter_basket_frames"):
        setattr(httpd, name, _timed_iter(rec, getattr(httpd, name)))

    AggregationService.prepare = _timed(
        rec, "shards.prepare", AggregationService.prepare
    )
    AggregationService.ingest_prepared = _timed(
        rec, "shards.absorb", AggregationService.ingest_prepared,
        lambda args, added: rec.count("shards.records", added),
    )
    ShardSet.merged = _timed(rec, "shards.merge", ShardSet.merged)
    AggregationService.estimate = _timed(
        rec, "service.estimate", AggregationService.estimate
    )
    MiningService.prepare = _timed(rec, "support.prepare", MiningService.prepare)
    MiningService.ingest_prepared = _timed(
        rec, "support.absorb", MiningService.ingest_prepared
    )
    MiningService.mine = _timed(rec, "mining.mine", MiningService.mine)
    ReconstructionEngine.estimate_counts = _timed(
        rec, "engine.sweep", ReconstructionEngine.estimate_counts,
        lambda args, out: rec.count("engine.iterations", out[0].n_iterations),
    )
    TrainingService.train = _timed(
        rec, "training.train", TrainingService.train,
        lambda args, model: rec.count("training.rows", args[0].n_buffered),
    )
    ClusterCoordinator.sync = _timed(
        rec, "cluster.sync", ClusterCoordinator.sync,
        lambda args, out: (
            rec.count("cluster.pulls", len(out["synced"])),
            rec.count("cluster.pull_failures", len(out["failed"])),
        ),
    )
    ClusterCoordinator.apply_push = _timed(
        rec, "cluster.apply", ClusterCoordinator.apply_push
    )
