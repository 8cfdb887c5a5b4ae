"""E26 — Wire v5 codecs: compressed and quantized ingest bodies.

A disclosure is one of a few dozen bin indices, yet the v1 wire ships
it as 8 raw float64 bytes.  Wire v5 attacks the body size from two
independent angles:

* **quantized columns** — the client calls ``service.quantize`` and
  ships int8/int16 bin indices (1-2 bytes per value) instead of
  float64; the server adds the layout offset and feeds the same fused
  bincount, so estimates cannot drift,
* **per-body compression** — the whole request body rides
  ``Content-Encoding: zlib`` (or zstd when the optional package is
  installed) and is decoded through the bounded
  :func:`~repro.service.wire.decompress_payload`, exactly as the HTTP
  front end does.

This benchmark encodes identical disclosures through every
(encoding x codec) leg, replays the bodies decode-first as the handler
would (decompress + iter_frames + prepare + ingest) with 4 worker
threads at 1 and 4 shards, and asserts:

* estimates for **every** leg and shard count are bit-identical to a
  single-stream :class:`StreamingReconstructor` fed the same
  disclosures (quantization relocates encoding work, never the math),
* compressed legs ship strictly fewer bytes per record than their
  identity siblings, and the quantized wire beats raw float64 by >= 4x
  before compression even starts.

It records the quantized identity leg's ingest rate over the float64
identity leg's at 4 shards as ``timing.quantized_vs_float_rate_4_shards``,
whose declared floor ``ppdm bench compare`` checks: binning pre-located
indices must not fall far behind the float fast path.
"""

from __future__ import annotations

from functools import partial

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
from repro.service import AggregationService
from repro.service.wire import (
    WIRE_VERSION_QUANTIZED,
    compress_payload,
    decompress_payload,
    encode_columns,
    encode_quantized,
    iter_frames,
    supported_codecs,
)

N_ATTRIBUTES = 4
N_BATCHES = 64
N_WORKERS = 4
SHARD_COUNTS = (1, 4)
REPEATS = 3
MAX_DECODED = 1 << 30


def _encoded_bodies(specs, batches):
    """Every (encoding, codec) leg over the same disclosures."""
    quantizer = AggregationService(specs)
    float_bodies = [encode_columns(batch) for batch in batches]
    quant_bodies = [
        encode_quantized(quantizer.quantize(batch)) for batch in batches
    ]
    legs = {}
    for codec in supported_codecs():
        legs["float64", codec] = [
            compress_payload(body, codec) for body in float_bodies
        ]
        legs["quantized", codec] = [
            compress_payload(body, codec) for body in quant_bodies
        ]
    return legs


def _ingest_body(service, body: bytes, shard: int, codec: str) -> None:
    """What the handler does: bounded decompress, decode, fused ingest."""
    if codec != "identity":
        body = decompress_payload(body, codec, max_decoded=MAX_DECODED)
    for batch, _ in iter_frames(body):
        service.ingest_prepared(service.prepare(batch), shard=shard)


@experiment(
    "e26",
    title="Wire v5 codecs: compressed + quantized ingest bodies",
    tags=("service", "smoke"),
    seed=11,
    floors={"quantized_vs_float_rate_4_shards": 0.3},
)
def run_e26(ctx):
    n_per_attribute = ctx.scaled(96_000)
    specs = service_specs(N_ATTRIBUTES)
    batches = service_disclosures(specs, n_per_attribute, ctx.seed, N_BATCHES)
    n_records = sum(batch[s.name].size for batch in batches for s in specs)
    legs = _encoded_bodies(specs, batches)
    leg_bytes = {leg: sum(len(b) for b in bodies) for leg, bodies in legs.items()}
    ctx.record(
        n_records=n_records,
        n_attributes=N_ATTRIBUTES,
        n_batches=N_BATCHES,
        n_workers=N_WORKERS,
        wire_version=WIRE_VERSION_QUANTIZED,
        codecs=",".join(supported_codecs()),
        **{
            f"{encoding}_{codec}_bytes": total
            for (encoding, codec), total in leg_bytes.items()
        },
    )

    reference = reference_estimates(specs, batches)
    seconds = {}
    for leg, bodies in legs.items():
        encoding, codec = leg
        ingest_one = partial(_ingest_body, codec=codec)
        for n_shards in SHARD_COUNTS:
            best = float("inf")
            for _ in range(REPEATS):
                elapsed, estimates = replay_bodies(
                    specs, bodies, ingest_one, n_shards, N_WORKERS
                )
                assert_parity(reference, estimates)
                best = min(best, elapsed)
            seconds[encoding, codec, n_shards] = best

    rows = []
    raw_bpr = leg_bytes["float64", "identity"] / n_records
    for (encoding, codec), total in leg_bytes.items():
        bpr = total / n_records
        rate = n_records / seconds[encoding, codec, 4]
        rows.append(
            (
                encoding,
                codec,
                f"{bpr:.2f}",
                f"{raw_bpr / bpr:.2f}x",
                f"{rate:,.0f}",
            )
        )
    table_text = format_table(
        ("encoding", "codec", "bytes/record", "vs raw", "records/s @4"),
        rows,
        title=(
            f"E26: wire body size and decode+ingest throughput, "
            f"{N_ATTRIBUTES} attributes x {n_per_attribute} records, "
            f"{N_WORKERS} workers"
        ),
    )
    quant_ratio = leg_bytes["float64", "identity"] / leg_bytes[
        "quantized", "identity"
    ]
    zlib_ratio = leg_bytes["float64", "identity"] / leg_bytes["float64", "zlib"]
    summary = (
        f"\nquantized wire: {quant_ratio:.2f}x smaller than raw float64"
        f"\nzlib on float64: {zlib_ratio:.2f}x smaller"
        f"\nestimates bit-identical to the serial single-stream reference "
        f"for every leg and shard count"
    )
    ctx.report(table_text + summary, name="e26_codecs")
    ctx.record_timing(
        quantized_vs_float_rate_4_shards=seconds["float64", "identity", 4]
        / seconds["quantized", "identity", 4],
        **{
            f"{encoding}_{codec}_{n_shards}_shards_ms": best * 1e3
            for (encoding, codec, n_shards), best in seconds.items()
        },
    )

    # deterministic size gates: compression and quantization must both
    # strictly beat the raw wire
    for encoding in ("float64", "quantized"):
        assert leg_bytes[encoding, "zlib"] < leg_bytes[encoding, "identity"], (
            encoding
        )
    assert quant_ratio >= 4.0, f"quantized ratio {quant_ratio:.2f}x < 4x"

    return {
        "bit_identical": True,
        "wire_version": WIRE_VERSION_QUANTIZED,
        "quantized_ratio": round(quant_ratio, 2),
        "zlib_ratio": round(zlib_ratio, 2),
        **{
            f"{encoding}_{codec}_bytes_per_record": round(total / n_records, 2)
            for (encoding, codec), total in leg_bytes.items()
        },
    }


def test_e26_codecs(benchmark):
    run_experiment(benchmark, "e26")
