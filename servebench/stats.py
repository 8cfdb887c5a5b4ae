"""Pure helpers of the serving benchmark: percentiles, span self time,
the client/server request join, the additivity check, and open-loop
due-time accounting.

Nothing here touches a socket or a clock, so every rule the benchmark
reports by is unit-tested in ``test_stats.py``.
"""

from __future__ import annotations

import math
import statistics

#: a tail percentile is only reported where at least this many samples
#: lie beyond it
MIN_BEYOND = 10

#: the server span every request id joins on
SERVER_SPAN = "httpd.server"


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def tail(values, target: float = 99.0, min_beyond: int = MIN_BEYOND) -> tuple:
    """``(percentile, value)`` of the highest supported tail percentile.

    Nearest-rank percentile at ``target``, lowered until at least
    ``min_beyond`` samples lie strictly beyond the chosen rank, and
    never below the median.  A sample of 440 therefore reports p97.5,
    not a p99 that rests on four samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail() of an empty sample")
    # rounded first so that 0.99 * 2000 cannot ceil to rank 1981
    wanted = max(0, math.ceil(round(target * n / 100.0, 9)) - 1)
    supported = n - 1 - min_beyond
    floor = n // 2
    index = max(min(wanted, supported), floor)
    return 100.0 * (index + 1) / n, float(ordered[index])


def self_times(spans) -> list:
    """Self time of every span of one thread: duration minus its children.

    ``spans`` are ``(name, start, end)`` triples from one thread, hence
    properly nested (a call stack).  A span's children are the spans
    directly inside it; its self time is its duration minus theirs.
    Returns ``(name, start, end, self)`` in start order.
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    out = []
    stack = []  # indices into out of the spans still open
    for name, start, end in ordered:
        while stack and out[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            parent = out[stack[-1]]
            parent[3] -= end - start
        out.append([name, start, end, end - start])
        stack.append(len(out) - 1)
    return [tuple(entry) for entry in out]


def lock_waits(spans) -> list:
    """Waits for the estimate lock in one thread's spans.

    The wait is the time from entering ``service.estimate`` to entering
    the ``shards.merge`` it makes under the lock; an estimate with no
    merge inside it (it failed before merging) has none.
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    waits = []
    for i, (name, start, end) in enumerate(ordered):
        if name != "service.estimate":
            continue
        merge = next(
            (s for n, s, e in ordered[i + 1:]
             if n == "shards.merge" and e <= end),
            None,
        )
        if merge is not None:
            waits.append(merge - start)
    return waits


def join_requests(client, spans) -> dict:
    """Join client requests to their server spans by request id.

    ``client`` maps request id -> ``(route, latency_s)``; ``spans`` are
    ``(name, request_id, thread, start, end)`` tuples from the server.
    Each joined request becomes ``{"route", "client_ms", "server_ms",
    "busy": {layer: ms}, "self": {layer: ms}}`` where ``busy`` sums the
    durations and ``self`` the self times of the request's spans per
    layer.  ``self`` also carries ``transport.wait`` — client latency
    minus the server span — and ``busy`` carries
    ``service.lock_wait`` (see :func:`lock_waits`).  Requests without a
    server span (never parsed) are left out; spans of unknown ids are
    ignored.
    """
    by_request: dict = {}
    for name, rid, thread, start, end in spans:
        if rid in client:
            by_request.setdefault(rid, {}).setdefault(thread, []).append(
                (name, start, end)
            )
    joined = {}
    for rid, threads in by_request.items():
        busy: dict = {}
        own: dict = {}
        server_ms = None
        for thread_spans in threads.values():
            for name, start, end, self_s in self_times(thread_spans):
                busy[name] = busy.get(name, 0.0) + (end - start) * 1e3
                own[name] = own.get(name, 0.0) + self_s * 1e3
                if name == SERVER_SPAN:
                    server_ms = (end - start) * 1e3
            waits = lock_waits(thread_spans)
            if waits:
                busy["service.lock_wait"] = (
                    busy.get("service.lock_wait", 0.0) + sum(waits) * 1e3
                )
        if server_ms is None:
            continue
        route, latency_s = client[rid]
        client_ms = latency_s * 1e3
        own["transport.wait"] = client_ms - server_ms
        joined[rid] = {
            "route": route,
            "client_ms": client_ms,
            "server_ms": server_ms,
            "busy": busy,
            "self": own,
        }
    return joined


def additivity(joined, tolerance: float = 0.10) -> dict:
    """Per route: do the layers' median self times add up to the client?

    For every route, each layer's self time is taken per request (zero
    where the request did not reach the layer) and its median summed;
    the remainder is the traced client median minus that sum.  Returns
    ``{route: {"n", "client_ms", "sum_ms", "unattributed_ms", "ok"}}``
    with ``ok`` when the remainder is within ``tolerance`` of the
    client median.
    """
    routes: dict = {}
    for request in joined.values():
        routes.setdefault(request["route"], []).append(request)
    out = {}
    for route, requests in sorted(routes.items()):
        layers = sorted({name for r in requests for name in r["self"]})
        total = sum(
            median([r["self"].get(name, 0.0) for r in requests])
            for name in layers
        )
        client_ms = median([r["client_ms"] for r in requests])
        remainder = client_ms - total
        out[route] = {
            "n": len(requests),
            "client_ms": client_ms,
            "sum_ms": total,
            "unattributed_ms": remainder,
            "ok": abs(remainder) <= tolerance * client_ms,
        }
    return out


def due_times(start: float, period: float, count: int) -> list:
    """The open-loop schedule: request ``i`` is due at ``start + i*period``."""
    return [start + i * period for i in range(count)]


def paced_timing(due: float, sent: float, done: float) -> tuple:
    """``(latency, late)`` of one paced request.

    Latency runs from when the request was *due*, so a stall that
    delays later sends is charged to them; ``late`` is how far behind
    its schedule the generator sent it.
    """
    return done - due, max(0.0, sent - due)
