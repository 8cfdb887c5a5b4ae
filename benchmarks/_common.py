"""Shared helpers for the benchmark harness.

Every benchmark registers one paper experiment with the
:mod:`repro.bench` registry: a ``run_e*(ctx)`` function decorated with
``@experiment(...)`` that returns a flat dict of deterministic metrics,
renders its ASCII tables through ``ctx.report`` (persisted under
``benchmarks/results/``), and asserts the paper's qualitative *shape* —
bit-identity, counts, byte sizes — so a silent regression fails both the
pytest run and ``ppdm bench run``.

Bodies never assert on a wall clock.  Speedups and latencies go to
``ctx.record_timing``; an experiment that gates on one declares it once,
as ``@experiment(..., floors={timing key: minimum})``, and only ``ppdm
bench compare`` checks it.

The ``test_*`` wrappers in each file execute the same registered body
under pytest-benchmark timing via :func:`run_experiment`, so ``pytest
benchmarks/bench_e*.py`` and ``ppdm bench run`` exercise identical code.

Dataset sizes honour ``PPDM_BENCH_SCALE`` (1.0 = laptop default,
10 = the paper's scale) via ``ctx.scaled``.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.bench import REGISTRY, ExperimentContext
from repro.bench.registry import experiment  # noqa: F401  (re-exported decorator)
from repro.core import KernelCache, Partition, StreamingReconstructor, UniformRandomizer
from repro.service import AggregationService, AttributeSpec
from repro.utils.rng import ensure_rng

warnings.filterwarnings("ignore", category=UserWarning, module="repro")

RESULTS_DIR = Path(__file__).parent / "results"


def make_context(experiment_id: str, *, verbose: bool = True) -> ExperimentContext:
    """A pytest-side context on the experiment's canonical seed.

    The committed tables under ``benchmarks/results/`` are reference
    views at scale 1; an off-scale run (``PPDM_BENCH_SCALE``) keeps its
    tables in memory instead of overwriting them.
    """
    from repro.experiments.config import bench_scale

    spec = REGISTRY.get(experiment_id)
    results_dir = RESULTS_DIR if bench_scale() == 1.0 else None
    return ExperimentContext(
        spec.id, spec.seed, results_dir=results_dir, verbose=verbose
    )


def run_experiment(benchmark, experiment_id: str) -> dict:
    """Run a registered experiment once under pytest-benchmark timing."""
    spec = REGISTRY.get(experiment_id)
    ctx = make_context(experiment_id)
    return benchmark.pedantic(lambda: spec.fn(ctx), rounds=1, iterations=1)


def service_specs(n_attributes: int) -> list:
    """Attributes with distinct domains (one kernel each)."""
    specs = []
    for j in range(n_attributes):
        low, high = float(10 * j), float(10 * j + 8 + j)
        partition = Partition.uniform(low, high, 24)
        noise = UniformRandomizer.from_privacy(1.0, high - low)
        specs.append(AttributeSpec(f"a{j}", partition, noise))
    return specs


def service_disclosures(specs, n_per_attribute: int, seed: int, n_batches: int):
    """Pre-generated randomized batches: ``batches[b][name] -> values``."""
    rng = ensure_rng(seed)
    per_batch = n_per_attribute // n_batches
    batches = []
    for _ in range(n_batches):
        batch = {}
        for j, spec in enumerate(specs):
            low, high = spec.x_partition.low, spec.x_partition.high
            span = high - low
            center = low + span * (0.3 + 0.05 * j)
            x = np.clip(rng.normal(center, 0.15 * span, per_batch), low, high)
            batch[spec.name] = spec.randomizer.randomize(x, seed=rng)
        batches.append(batch)
    return batches


def reference_estimates(specs, batches) -> dict:
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


def assert_parity(reference, estimates) -> None:
    """Service estimates must reproduce the reference bitwise."""
    for name, expected in reference.items():
        result = estimates[name]
        assert np.array_equal(
            expected.distribution.probs, result.distribution.probs
        ), name
        assert expected.n_iterations == result.n_iterations, name
        assert expected.chi2_statistic == result.chi2_statistic, name


def replay_bodies(specs, bodies, ingest_one, n_shards: int, n_workers: int) -> tuple:
    """Decode + ingest every body with worker threads pinned to shards.

    ``ingest_one(service, body, shard)`` does what the HTTP handler does
    with one request body.  Returns ``(seconds, service.estimate_all())``;
    the final estimate is outside the timed window.
    """
    service = AggregationService(specs, n_shards=n_shards)
    assignments = [bodies[w::n_workers] for w in range(n_workers)]

    def worker(index: int) -> None:
        shard = index % n_shards
        for body in assignments[index]:
            ingest_one(service, body, shard)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(worker, range(n_workers)))
    seconds = time.perf_counter() - start
    return seconds, service.estimate_all()
