"""E21 — Zero-copy columnar ingest fast path vs the JSON wire.

The server never sees raw values — ingest is pure, mergeable histogram
accumulation — so its cost should be memory bandwidth, not JSON-parse
speed.  The PR 3 wire decoded a JSON float list (one Python object per
disclosed value) and bucketed each attribute separately under a shard
lock.  The fast path replaces all three stages:

* **decode** — ``application/x-ppdm-columns`` frames carry raw
  little-endian float64 columns; the decoder is ``np.frombuffer`` over
  the body (zero copies, no per-value objects),
* **locate + bin** — one fused flat-offset ``np.bincount`` bins every
  attribute of a batch in a single vectorized pass,
* **accumulate** — one locked add of the binned batch into the shard's
  counts buffer; locate and bin run before the lock is taken.

This benchmark replays identical pre-encoded request bodies through
both wire paths exactly as the HTTP handler would (decode + ingest,
sockets excluded) with 4 worker threads at 1 and 4 shards, and asserts:

* estimates after every run are **bit-identical** to a single-stream
  :class:`StreamingReconstructor` fed the same disclosures (the JSON
  and columnar paths are interchangeable mid-stream), and
* the columnar path ingests at >= 3x the JSON path's rate at 4 shards.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from _common import experiment, run_experiment

from repro.core import KernelCache, Partition, StreamingReconstructor, UniformRandomizer
from repro.experiments.reporting import format_table
from repro.service import AggregationService, AttributeSpec
from repro.service.wire import WIRE_VERSION, encode_columns, iter_frames
from repro.utils.rng import ensure_rng

N_ATTRIBUTES = 4
N_BATCHES = 64
N_WORKERS = 4
SHARD_COUNTS = (1, 4)
REPEATS = 3


def _throughput_floor_scale() -> float:
    """Scales the wall-clock throughput threshold (parity asserts are
    unaffected).  Shared CI runners set this below 1 so a noisy neighbour
    cannot flake the build while a real regression still fails."""
    return float(os.environ.get("PPDM_E21_THROUGHPUT_FLOOR", "1.0"))


def _specs():
    """Four attributes with distinct domains (one kernel each)."""
    specs = []
    for j in range(N_ATTRIBUTES):
        low, high = float(10 * j), float(10 * j + 8 + j)
        partition = Partition.uniform(low, high, 24)
        noise = UniformRandomizer.from_privacy(1.0, high - low)
        specs.append(AttributeSpec(f"a{j}", partition, noise))
    return specs


def _disclosures(specs, n_per_attribute: int, seed: int):
    """Pre-generated randomized batches: ``batches[b][name] -> values``."""
    rng = ensure_rng(seed)
    per_batch = n_per_attribute // N_BATCHES
    batches = []
    for _ in range(N_BATCHES):
        batch = {}
        for j, spec in enumerate(specs):
            low, high = spec.x_partition.low, spec.x_partition.high
            span = high - low
            center = low + span * (0.3 + 0.05 * j)
            x = np.clip(rng.normal(center, 0.15 * span, per_batch), low, high)
            batch[spec.name] = spec.randomizer.randomize(x, seed=rng)
        batches.append(batch)
    return batches


def _json_bodies(batches) -> list:
    """The PR 3 wire: one ``POST /ingest`` JSON body per batch."""
    return [
        json.dumps(
            {"batch": {name: values.tolist() for name, values in batch.items()}}
        ).encode()
        for batch in batches
    ]


def _columnar_bodies(batches) -> list:
    """The fast path: one binary columnar frame per batch."""
    return [encode_columns(batch) for batch in batches]


def _ingest_json(service, body: bytes, shard: int) -> None:
    """What the handler does for ``Content-Type: application/json``."""
    payload = json.loads(body.decode())
    service.ingest(payload["batch"], shard=shard)


def _ingest_columns(service, body: bytes, shard: int) -> None:
    """What the handler does for ``application/x-ppdm-columns``."""
    for batch, _ in iter_frames(body):
        service.ingest_prepared(service.prepare(batch), shard=shard)


def _run_wire(specs, bodies, ingest_one, n_shards: int) -> tuple:
    """Decode + ingest every body with worker threads pinned to shards."""
    service = AggregationService(specs, n_shards=n_shards)
    assignments = [bodies[w::N_WORKERS] for w in range(N_WORKERS)]

    def worker(index: int) -> None:
        shard = index % n_shards
        for body in assignments[index]:
            ingest_one(service, body, shard)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_WORKERS) as pool:
        list(pool.map(worker, range(N_WORKERS)))
    seconds = time.perf_counter() - start
    return seconds, service.estimate_all()


def _reference_estimates(specs, batches) -> dict:
    """Single-stream, single-shard serial reference (the parity anchor)."""
    cache = KernelCache()
    reference = {}
    for spec in specs:
        stream = StreamingReconstructor(
            spec.x_partition, spec.randomizer, kernel_cache=cache
        )
        for batch in batches:
            stream.update(batch[spec.name])
        reference[spec.name] = stream.estimate()
    return reference


def _assert_parity(reference, estimates) -> None:
    """Each wire/shard combination must reproduce the reference bitwise."""
    for name, expected in reference.items():
        result = estimates[name]
        assert np.array_equal(
            expected.distribution.probs, result.distribution.probs
        ), name
        assert expected.n_iterations == result.n_iterations, name
        assert expected.chi2_statistic == result.chi2_statistic, name


@experiment(
    "e21",
    title="Zero-copy columnar ingest fast path vs JSON wire",
    tags=("service", "smoke"),
    seed=7,
)
def run_e21(ctx):
    n_per_attribute = ctx.scaled(96_000)
    specs = _specs()
    batches = _disclosures(specs, n_per_attribute, seed=ctx.seed)
    n_records = sum(batch[s.name].size for batch in batches for s in specs)
    json_bodies = _json_bodies(batches)
    col_bodies = _columnar_bodies(batches)
    json_bytes = sum(len(b) for b in json_bodies)
    col_bytes = sum(len(b) for b in col_bodies)
    ctx.record(
        n_records=n_records,
        n_attributes=N_ATTRIBUTES,
        n_batches=N_BATCHES,
        n_workers=N_WORKERS,
        wire_version=WIRE_VERSION,
        json_body_bytes=json_bytes,
        columnar_body_bytes=col_bytes,
    )

    reference = _reference_estimates(specs, batches)
    wires = {"json": (json_bodies, _ingest_json),
             "columns": (col_bodies, _ingest_columns)}
    seconds = {}
    for wire, (bodies, ingest_one) in wires.items():
        for n_shards in SHARD_COUNTS:
            best = float("inf")
            for _ in range(REPEATS):
                elapsed, estimates = _run_wire(specs, bodies, ingest_one, n_shards)
                _assert_parity(reference, estimates)
                best = min(best, elapsed)
            seconds[wire, n_shards] = best

    rows = []
    for wire in wires:
        for n_shards in SHARD_COUNTS:
            rate = n_records / seconds[wire, n_shards]
            baseline = n_records / seconds["json", n_shards]
            rows.append(
                (
                    wire,
                    str(n_shards),
                    f"{seconds[wire, n_shards] * 1e3:.1f}",
                    f"{rate:,.0f}",
                    f"{rate / baseline:.2f}x",
                )
            )
    speedup = seconds["json", 4] / seconds["columns", 4]
    table_text = format_table(
        ("wire", "shards", "wall ms", "records/s", "vs json"),
        rows,
        title=(
            f"E21: decode + ingest throughput, {N_ATTRIBUTES} attributes x "
            f"{n_per_attribute} records, {N_WORKERS} workers"
        ),
    )
    summary = (
        f"\ncolumnar speedup vs JSON wire at 4 shards = {speedup:.2f}x"
        f"\nwire sizes: JSON {json_bytes / 1e6:.1f} MB, "
        f"columnar {col_bytes / 1e6:.1f} MB"
        f"\nestimates bit-identical to the serial single-stream reference "
        f"for every wire and shard count"
    )
    ctx.report(table_text + summary, name="e21_ingest_fastpath")
    ctx.record_timing(
        speedup_4_shards=speedup,
        **{
            f"{wire}_{n_shards}_shards_ms": seconds[wire, n_shards] * 1e3
            for wire in wires
            for n_shards in SHARD_COUNTS
        },
    )

    floor = 3.0 * _throughput_floor_scale()
    assert speedup >= floor, f"expected >= {floor:.2f}x, got {speedup:.2f}x"

    return {
        "bit_identical": True,
        "wire_version": WIRE_VERSION,
        "columnar_bytes_per_record": col_bytes / n_records,
        "json_bytes_per_record": round(json_bytes / n_records, 2),
    }


def test_e21_ingest_fastpath(benchmark):
    run_experiment(benchmark, "e21")
