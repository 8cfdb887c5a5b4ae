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
sockets excluded) with 4 worker threads at 1 and 4 shards.  It asserts
that estimates after every run are **bit-identical** to a single-stream
:class:`StreamingReconstructor` fed the same disclosures (the JSON and
columnar paths are interchangeable mid-stream), and records the
columnar path's rate over the JSON path's at 4 shards as
``timing.speedup_4_shards``, whose declared floor ``ppdm bench compare``
checks.
"""

from __future__ import annotations

import json

from _common import (
    assert_parity,
    experiment,
    reference_estimates,
    replay_bodies,
    run_experiment,
    service_disclosures,
    service_specs,
)

from repro.experiments.reporting import format_table
from repro.service.wire import WIRE_VERSION, encode_columns, iter_frames

N_ATTRIBUTES = 4
N_BATCHES = 64
N_WORKERS = 4
SHARD_COUNTS = (1, 4)
REPEATS = 3


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


@experiment(
    "e21",
    title="Zero-copy columnar ingest fast path vs JSON wire",
    tags=("service", "smoke"),
    seed=7,
    floors={"speedup_4_shards": 1.5},
)
def run_e21(ctx):
    n_per_attribute = ctx.scaled(96_000)
    specs = service_specs(N_ATTRIBUTES)
    batches = service_disclosures(specs, n_per_attribute, ctx.seed, N_BATCHES)
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

    reference = reference_estimates(specs, batches)
    wires = {"json": (json_bodies, _ingest_json),
             "columns": (col_bodies, _ingest_columns)}
    seconds = {}
    for wire, (bodies, ingest_one) in wires.items():
        for n_shards in SHARD_COUNTS:
            best = float("inf")
            for _ in range(REPEATS):
                elapsed, estimates = replay_bodies(
                    specs, bodies, ingest_one, n_shards, N_WORKERS
                )
                assert_parity(reference, estimates)
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

    return {
        "bit_identical": True,
        "wire_version": WIRE_VERSION,
        "columnar_bytes_per_record": col_bytes / n_records,
        "json_bytes_per_record": round(json_bytes / n_records, 2),
    }


def test_e21_ingest_fastpath(benchmark):
    run_experiment(benchmark, "e21")
