"""E20 — Sharded aggregation service vs the single-stream serving loop.

The paper's deployment is a server absorbing randomized disclosures from
many providers while analysts query reconstructed distributions.  The
pre-service pattern (examples/streaming_survey.py before PR 3) pushed
every batch through one :class:`StreamingReconstructor` per attribute and
refreshed the estimate after each batch so queries stayed current —
paying warm-started Bayes sweeps on *every* ingest.

:class:`repro.service.AggregationService` decouples the two planes:
ingestion workers accumulate O(batch) histogram partials into shards,
and a refresh merges partials in O(shards x bins) when an analyst asks.
This benchmark measures ingest throughput (records/sec) of the service
at 1, 2, and 4 shards with 4 worker threads against the single-stream
refresh-per-batch loop on identical disclosures.  It asserts that the
service's final estimates are **bit-identical** to a single-stream
reconstructor fed the same disclosures (at every shard count), and it
records the 4-shard rate over the loop's as ``timing.speedup_4_shards``
for ``ppdm bench compare`` to check against its declared floor.

On a single core the shard counts tie (sharding is about contention-free
concurrency, not about doing less work); the win is architectural —
deferred, merge-based refreshes instead of per-batch sweeps.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from _common import (
    assert_parity,
    experiment,
    reference_estimates,
    run_experiment,
    service_disclosures,
    service_specs,
)

from repro.core import KernelCache, StreamingReconstructor
from repro.experiments.reporting import format_table
from repro.service import AggregationService

N_ATTRIBUTES = 4
N_BATCHES = 96
N_WORKERS = 4
SHARD_COUNTS = (1, 2, 4)
REPEATS = 3


def _run_single_stream(specs, batches) -> tuple:
    """The pre-service loop: per-batch update + estimate refresh."""
    cache = KernelCache()
    streams = {
        spec.name: StreamingReconstructor(
            spec.x_partition, spec.randomizer, kernel_cache=cache
        )
        for spec in specs
    }
    start = time.perf_counter()
    for batch in batches:
        for name, values in batch.items():
            streams[name].update(values)
            streams[name].estimate()
    return time.perf_counter() - start, streams


def _run_service(specs, batches, n_shards: int) -> tuple:
    """Service ingestion: worker threads pinned to shards, one final merge."""
    service = AggregationService(specs, n_shards=n_shards)
    assignments = [batches[w::N_WORKERS] for w in range(N_WORKERS)]

    def worker(index: int) -> None:
        shard = index % n_shards
        for batch in assignments[index]:
            service.ingest(batch, shard=shard)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_WORKERS) as pool:
        list(pool.map(worker, range(N_WORKERS)))
    estimates = service.estimate_all()
    return time.perf_counter() - start, service, estimates


@experiment(
    "e20",
    title="Sharded aggregation service ingest throughput",
    tags=("service", "smoke"),
    seed=7,
    floors={"speedup_4_shards": 1.0},
)
def run_e20(ctx):
    n_per_attribute = ctx.scaled(96_000)
    specs = service_specs(N_ATTRIBUTES)
    batches = service_disclosures(specs, n_per_attribute, ctx.seed, N_BATCHES)
    n_records = sum(batch[s.name].size for batch in batches for s in specs)
    ctx.record(
        n_records=n_records,
        n_attributes=N_ATTRIBUTES,
        n_batches=N_BATCHES,
        n_workers=N_WORKERS,
        noise="uniform",
    )

    single_seconds = float("inf")
    for _ in range(REPEATS):
        seconds, _streams = _run_single_stream(specs, batches)
        single_seconds = min(single_seconds, seconds)

    service_seconds = {}
    estimates_by_shards = {}
    kernel_misses = None
    for n_shards in SHARD_COUNTS:
        best = float("inf")
        for _ in range(REPEATS):
            seconds, service, estimates = _run_service(specs, batches, n_shards)
            best = min(best, seconds)
        service_seconds[n_shards] = best
        estimates_by_shards[n_shards] = estimates
        kernel_misses = service.engine.kernel_cache.misses

    reference = reference_estimates(specs, batches)
    for estimates in estimates_by_shards.values():
        assert_parity(reference, estimates)

    single_rate = n_records / single_seconds
    rows = [
        (
            "single-stream (refresh/batch)",
            "-",
            f"{single_seconds * 1e3:.1f}",
            f"{single_rate:,.0f}",
            "1.00x",
        )
    ]
    for n_shards in SHARD_COUNTS:
        rate = n_records / service_seconds[n_shards]
        rows.append(
            (
                "service (deferred refresh)",
                str(n_shards),
                f"{service_seconds[n_shards] * 1e3:.1f}",
                f"{rate:,.0f}",
                f"{rate / single_rate:.2f}x",
            )
        )
    speedup = (n_records / service_seconds[4]) / single_rate
    table_text = format_table(
        ("ingest path", "shards", "wall ms", "records/s", "vs single"),
        rows,
        title=(
            f"E20: ingest throughput, {N_ATTRIBUTES} attributes x "
            f"{n_per_attribute} records, {N_WORKERS} workers"
        ),
    )
    summary = (
        f"\n4-shard speedup vs single-stream loop = {speedup:.2f}x"
        f"\nestimates bit-identical to the single-stream reconstructor "
        f"at every shard count"
    )
    ctx.report(table_text + summary, name="e20_service_throughput")
    ctx.record_timing(
        single_stream_ms=single_seconds * 1e3,
        speedup_4_shards=speedup,
        **{
            f"service_{k}_shards_ms": v * 1e3
            for k, v in service_seconds.items()
        },
    )

    # One kernel per attribute, shared across every shard count's service
    # (the benchmark builds fresh caches per service, so misses are per run).
    assert kernel_misses == N_ATTRIBUTES

    final = estimates_by_shards[SHARD_COUNTS[-1]]
    return {
        "bit_identical": True,
        "total_sweeps_final_refresh": int(
            sum(result.n_iterations for result in final.values())
        ),
        "all_converged": bool(all(r.converged for r in final.values())),
    }


def test_e20_service_throughput(benchmark):
    run_experiment(benchmark, "e20")
