"""Serving benchmark: a load generator driving a separately launched server.

Run from the repository root::

    python3 servebench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--workload`` is ``ingest``, ``analyst`` or ``cluster`` (see
``README.md``).  The server runs in its own process (``server.py``,
built from ``src/``) and is driven over loopback by at most two
threads, each holding one keep-alive ``http.client`` connection.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` the run is made twice, untraced then with
every layer of the server wrapped, and the last line holds the
per-layer split.  Earlier lines carry host facts and the per-route
table.  The exit code is 0 only when the run completed; a run whose
correctness or additivity check failed still exits 0 but reports
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: seconds of traffic before timing starts (connections, caches, first pulls)
WARMUP = 1.0
#: seconds to wait for a launched server to report ready
READY_TIMEOUT = 60.0

#: per-layer times: metric -> (source, span).  Each is reported as
#: ``<metric>.p50`` and ``<metric>.p99`` (the highest percentile with
#: ten samples beyond it) over the timed requests that reached the span,
#: from per-request sums of its durations (``busy``) or self times
#: (``self``); see stats.join_requests.
LAYER_TIMES = {
    "transport.wait_ms": ("self", "transport.wait"),
    "httpd.server_ms": ("busy", "httpd.server"),
    "httpd.self_ms": ("self", "httpd.server"),
    "wire.decompress_ms": ("busy", "wire.decompress"),
    "wire.decode_ms": ("busy", "wire.decode"),
    "shards.prepare_ms": ("busy", "shards.prepare"),
    "shards.absorb_ms": ("busy", "shards.absorb"),
    "shards.merge_ms": ("busy", "shards.merge"),
    "support.prepare_ms": ("busy", "support.prepare"),
    "support.absorb_ms": ("busy", "support.absorb"),
    "service.lock_wait_ms": ("busy", "service.lock_wait"),
    "service.estimate_ms": ("busy", "service.estimate"),
    "engine.sweep_ms": ("busy", "engine.sweep"),
    "training.train_ms": ("busy", "training.train"),
    "mining.mine_ms": ("busy", "mining.mine"),
    "cluster.sync_ms": ("busy", "cluster.sync"),
    "cluster.apply_ms": ("busy", "cluster.apply"),
    "cluster.fetch_ms": ("self", "cluster.sync"),
}
#: count metrics summed over the timed window (training.rows: the
#: buffer size a /train saw, so the largest)
LAYER_COUNTS = {
    "wire.bytes_in": sum,
    "wire.frames": sum,
    "shards.records": sum,
    "engine.iterations": sum,
    "training.rows": max,
    "cluster.pulls": sum,
    "cluster.pull_failures": sum,
}
#: derived per-layer metrics, after the LAYER_TIMES and LAYER_COUNTS ones
LAYER_DERIVED = {
    "engine.kernel_cache_hit_ratio": "ratio",
    "loadgen.late_ms.p50": "ms",
    "loadgen.late_ms.p99": "ms",
    "trace.overhead_pct": "%",
    "unattributed_ms": "ms",
}

#: end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "requests_per_s": "1/s",
    "server_peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in LAYER_TIMES:
        units[f"{name}.p50"] = units[f"{name}.p99"] = "ms"
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(LAYER_DERIVED)
    return units


class Clock:
    """The shared window: warm-up from ``start``, timing until ``deadline``."""

    def __init__(self, seconds: float) -> None:
        # a short lead so every client thread is running at ``start``
        self.start = time.perf_counter() + 0.05
        self.warm_end = self.start + WARMUP
        self.deadline = self.warm_end + seconds


class Server:
    """A launched ``server.py`` process and what it reported when ready."""

    def __init__(self, workload, trace: bool) -> None:
        config = {
            "mode": workload.mode,
            "spec": workload.spec,
            "train": workload.train,
            "workers": workload.WORKERS,
            "trace": trace,
        }
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )
        try:
            self.info = json.loads(self._readline(READY_TIMEOUT))
        except BaseException:
            self.kill()
            raise

    def __getitem__(self, key):
        return self.info[key]

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("the server did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"the server exited with code {self.proc.wait()}"
            )
        return line

    def spans(self) -> dict:
        self.proc.stdin.write("spans\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(READY_TIMEOUT))

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of every server process."""
        total_kb = 0
        for pid in self.info["pids"]:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the server did not shut down in time")
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"the server exited with code {code}")

    def kill(self) -> None:
        """Kill the launcher and its workers, and wait until all are gone."""
        workers = getattr(self, "info", {}).get("pids", [])[1:]
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        # the workers are the launcher's children, reaped by init once
        # it is gone: wait for their /proc entries to disappear
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and any(
            Path(f"/proc/{pid}").exists() for pid in workers
        ):
            time.sleep(0.05)


def set_up(workload, trace: bool) -> tuple:
    """Launch and preload; return ``(server, preload acks, seconds)``."""
    start = time.perf_counter()
    server = Server(workload, trace)
    try:
        acked = workload.preload(server)
    except BaseException:
        server.kill()
        raise
    return server, acked, time.perf_counter() - start


def drive(workload, server, seconds: float) -> tuple:
    """Run every client of the workload.

    Returns ``(records, timed, window)``: every request, those sent after
    the warm-up, and the seconds from the warm-up's end to the last reply.
    """
    clock = Clock(seconds)
    runs = workload.clients(server, clock)
    buckets = [[] for _ in runs]
    errors = []

    def guarded(run, bucket):
        try:
            run(bucket)
        except BaseException as exc:  # reported after the join
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(run, bucket))
        for run, bucket in zip(runs, buckets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    records = [r for bucket in buckets for r in bucket]
    timed = [r for r in records if r.sent >= clock.warm_end]
    window = max(r.done for r in timed) - clock.warm_end
    return records, timed, window


def route_table(timed, window: float) -> dict:
    """Per route: sample count, p50, p90, highest supported tail, rates."""
    table = {}
    for route in sorted({r.route for r in timed}):
        rows = [r for r in timed if r.route == route and r.ok]
        if not rows:
            continue
        latencies = [r.latency * 1e3 for r in rows]
        q, tail = stats.tail(latencies)
        table[route] = {
            "n": len(rows),
            "p50_ms": stats.median(latencies),
            "p90_ms": stats.tail(latencies, 90.0)[1],
            "tail_ms": tail,
            "tail_pct": q,
            "per_s": len(rows) / window,
            "records_per_s": sum(r.ingested for r in rows) / window,
        }
    return table


def leg(workload, trace: bool, seconds: float, setups: int) -> dict:
    """Set up (``setups`` times), drive, check, and tear down once."""
    setup_times = []
    for _ in range(setups - 1):
        server, _, elapsed = set_up(workload, trace)
        setup_times.append(elapsed)
        server.stop()
    server, preload_acks, elapsed = set_up(workload, trace)
    setup_times.append(elapsed)
    try:
        records, timed, window = drive(workload, server, seconds)
        spans = cache = None
        if trace:
            spans = server.spans()
            cache = workload.server_stats(server)["kernel_cache"]
        acked = preload_acks + [r.key for r in records if r.key is not None]
        problems = workload.check(server, acked)
        rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    server.stop()
    primary = [r for r in timed if r.primary]
    ok_primary = [r.latency * 1e3 for r in primary if r.ok]
    return {
        "setup_s": statistics.median(setup_times),
        "timed": timed,
        "window": window,
        "p50_ms": stats.median(ok_primary),
        "p90_ms": stats.tail(ok_primary, 90.0)[1],
        "requests_per_s": len(ok_primary) / window,
        "server_peak_rss_mb": rss,
        "problems": problems,
        "spans": spans,
        "cache": cache,
    }


def layer_metrics(result: dict, untraced: dict) -> tuple:
    """Per-layer values and the additivity table of a traced leg.

    Layers a workload never reaches report 0.
    """
    timed = result["timed"]
    client = {r.rid: (r.route, r.done - r.sent) for r in timed if r.ok}
    joined = stats.join_requests(client, result["spans"]["spans"])
    values = {}
    for name, (source, span) in LAYER_TIMES.items():
        sample = [
            request[source][span]
            for request in joined.values() if span in request[source]
        ]
        values[f"{name}.p50"] = stats.median(sample) if sample else 0.0
        values[f"{name}.p99"] = stats.tail(sample)[1] if sample else 0.0
    counts: dict = {}
    for name, rid, value in result["spans"]["counts"]:
        if rid in client:
            counts.setdefault(name, []).append(value)
    for name, reduce in LAYER_COUNTS.items():
        values[name] = float(reduce(counts[name])) if name in counts else 0.0
    cache = result["cache"]
    lookups = cache["hits"] + cache["misses"]
    values["engine.kernel_cache_hit_ratio"] = (
        cache["hits"] / lookups if lookups else 0.0
    )
    late = [r.late * 1e3 for r in timed]
    values["loadgen.late_ms.p50"] = stats.median(late)
    values["loadgen.late_ms.p99"] = stats.tail(late)[1]
    values["trace.overhead_pct"] = (
        100.0 * (result["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"]
    )
    table = stats.additivity(joined)
    primary = [
        row for route, row in table.items()
        if route in {r.route for r in timed if r.primary}
    ]
    values["unattributed_ms"] = (
        sum(row["n"] * row["unattributed_ms"] for row in primary)
        / sum(row["n"] for row in primary)
    )
    return values, table, len(joined)


def host_facts() -> dict:
    import numpy

    from repro.service.wire import supported_codecs

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "codecs": list(supported_codecs()),
        "commit": commit,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "analyst", "cluster"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "service").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "inputs": workload.inputs()}))

    if args.trace:
        untraced = leg(workload, False, args.seconds, 1)
        result = leg(workload, True, args.seconds, 1)
    else:
        untraced = result = leg(workload, False, args.seconds, SETUPS)
    problems = list(untraced["problems"])
    if result is not untraced:
        problems += result["problems"]
    timed = result["timed"]
    attempted = len(timed)
    failed = sum(1 for r in timed if not r.ok) + len(problems)

    print(json.dumps({
        "routes": route_table(timed, result["window"]),
        "error_rate": failed / attempted,
        "problems": problems,
    }))
    if args.trace:
        values, table, n_joined = layer_metrics(result, untraced)
        units = per_layer_units()
        print(json.dumps({"additivity": table, "joined": n_joined}))
        bad = [route for route, row in table.items() if not row["ok"]]
        if bad:
            problems.append(f"layers do not add up on {bad}")
            failed += 1
    else:
        values, units = result, END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
