"""E19 — Batched reconstruction engine vs the looped path.

The ByClass algorithm solves one reconstruction problem per attribute ×
class, and Local repeats that at every tree node.  The engine batches the
problems that share a noise kernel and caches kernels across calls.
This benchmark measures the speedup on a 4-class × 8-attribute workload
and asserts the batched path is **bit-identical** to the looped one:
same reconstructions, same corrected interval assignments, same tree.
The looped arm is :func:`repro.core.engine.run_bayes_reference` — the
public pre-engine reference path (kernel rebuilt, no batching).  Both
arms read chi-squared critical values from the same table.
The speedup is recorded as ``timing.speedup``; each experiment declares
its floor on ``@experiment`` and ``ppdm bench compare`` checks it.
"""

from __future__ import annotations

import time

import numpy as np
from _common import experiment, run_experiment

from repro.core.engine import run_bayes_reference
from repro.datasets.schema import Attribute, Table
from repro.experiments.reporting import format_table
from repro.tree.pipeline import PrivacyPreservingClassifier
from repro.utils.rng import ensure_rng

N_CLASSES = 4
N_ATTRIBUTES = 8


class LoopedReconstructor:
    """The pre-engine reconstruction path.

    Delegates to :func:`repro.core.engine.run_bayes_reference` — one
    kernel build per problem — and exposes no ``reconstruct_batch``
    attribute, so the pipeline falls back to its one-problem-at-a-time
    loops.
    """

    def reconstruct(self, values, partition, randomizer):
        return run_bayes_reference(values, partition, randomizer)


def _workload(n: int, seed: int):
    """A 4-class table whose 8 attributes have distinct domains and
    class-dependent distributions (so every reconstruction has work to do
    and every attribute needs its own kernel)."""
    rng = ensure_rng(seed)
    labels = rng.integers(0, N_CLASSES, n)
    schema, columns = [], {}
    for j in range(N_ATTRIBUTES):
        low, high = float(j), float(j + 1 + 0.25 * j)
        span = high - low
        center = low + span * (0.2 + 0.18 * labels) + 0.02 * j
        columns[f"a{j}"] = np.clip(rng.normal(center, 0.1 * span), low, high)
        schema.append(Attribute(f"a{j}", low, high))
    return Table(columns, labels, schema)


def _fit_pair(table, strategy: str, *, seed: int, repeats: int = 3, **kwargs):
    """Fit looped and batched classifiers on identical randomized data.

    Each arm is fitted ``repeats`` times and the best wall time kept, so
    scheduler noise cannot fake (or hide) a speedup.
    """
    base = PrivacyPreservingClassifier(
        strategy, noise="gaussian", seed=seed, **kwargs
    )
    base.fit(table)  # also serves as a warm-up run
    randomized, randomizers = base.randomized_table_, base.randomizers_

    looped_seconds = batched_seconds = float("inf")
    looped = batched = None
    for _ in range(repeats):
        looped = PrivacyPreservingClassifier(
            strategy,
            noise="gaussian",
            seed=seed,
            reconstructor=LoopedReconstructor(),
            **kwargs,
        )
        start = time.perf_counter()
        looped.fit(table, randomized_table=randomized, randomizers=randomizers)
        looped_seconds = min(looped_seconds, time.perf_counter() - start)

        batched = PrivacyPreservingClassifier(
            strategy, noise="gaussian", seed=seed, **kwargs
        )
        start = time.perf_counter()
        batched.fit(table, randomized_table=randomized, randomizers=randomizers)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    return looped, batched, looped_seconds, batched_seconds


def _assert_identical(looped, batched) -> None:
    """Bit-identity of the corrected intervals, reconstructions, and tree."""
    assert np.array_equal(looped.intervals_, batched.intervals_)
    assert looped.tree_.export_text() == batched.tree_.export_text()
    for name, looped_result in looped.reconstructions_.items():
        batched_result = batched.reconstructions_[name]
        per_class = (
            [(looped_result[c], batched_result[c]) for c in looped_result]
            if isinstance(looped_result, dict)
            else [(looped_result, batched_result)]
        )
        for a, b in per_class:
            assert np.array_equal(a.distribution.probs, b.distribution.probs)
            assert a.n_iterations == b.n_iterations


def _run_engine_comparison(ctx, *, strategy, n, workload_seed_offset, title, **kwargs):
    """Shared body of the two E19 experiments; returns (metrics, cache, speedup)."""
    table = _workload(ctx.scaled(n), seed=ctx.seed + workload_seed_offset)
    ctx.record(
        strategy=strategy,
        n=ctx.scaled(n),
        n_classes=N_CLASSES,
        n_attributes=N_ATTRIBUTES,
        noise="gaussian",
    )
    looped, batched, looped_s, batched_s = _fit_pair(
        table, strategy, seed=ctx.seed, **kwargs
    )
    _assert_identical(looped, batched)

    cache = batched.reconstructor.engine.kernel_cache
    speedup = looped_s / batched_s
    rows = [
        ("looped", f"{looped_s * 1e3:.1f}", "-", "-"),
        ("batched", f"{batched_s * 1e3:.1f}", str(cache.hits), str(cache.misses)),
    ]
    table_text = format_table(
        ("path", "fit ms", "kernel hits", "kernel misses"),
        rows,
        title=title,
    )
    ctx.record_timing(
        looped_ms=looped_s * 1e3,
        batched_ms=batched_s * 1e3,
        speedup=speedup,
    )
    metrics = {
        "kernel_hits": int(cache.hits),
        "kernel_misses": int(cache.misses),
        "bit_identical": True,
    }
    return metrics, cache, speedup, table_text


@experiment(
    "e19_byclass",
    title="Engine batching vs looped reference, ByClass fit",
    tags=("engine", "smoke"),
    seed=7,
    floors={"speedup": 1.0},
)
def run_e19_byclass(ctx):
    metrics, cache, speedup, table_text = _run_engine_comparison(
        ctx,
        strategy="byclass",
        n=6_000,
        workload_seed_offset=0,
        title="E19: ByClass fit, 4 classes x 8 attributes, gaussian noise",
        # High privacy + a fine grid: the paper's hard regime, where the
        # noise kernel is large and reconstruction does real work.
        max_depth=2,
        n_intervals=80,
        privacy=1.5,
    )
    summary = (
        f"\nspeedup = {speedup:.2f}x"
        f"\nproblems solved = {N_ATTRIBUTES * N_CLASSES}"
        f"\nkernels built (batched) = {cache.misses}"
        f"\nresults bit-identical to the looped path"
    )
    ctx.report(table_text + summary, name="e19_engine_batching_byclass")

    # One kernel per attribute instead of one per attribute x class.
    assert metrics["kernel_misses"] == N_ATTRIBUTES
    assert metrics["kernel_hits"] == N_ATTRIBUTES * (N_CLASSES - 1)
    return metrics


@experiment(
    "e19_local",
    title="Engine batching vs looped reference, Local fit",
    tags=("engine", "smoke"),
    seed=7,
    floors={"speedup": 0.75},
)
def run_e19_local(ctx):
    metrics, cache, speedup, table_text = _run_engine_comparison(
        ctx,
        strategy="local",
        n=8_000,
        workload_seed_offset=1,
        title="E19: Local fit, 4 classes x 8 attributes, gaussian noise",
        max_depth=4,
    )
    summary = (
        f"\nspeedup = {speedup:.2f}x"
        f"\nkernels built (batched) = {cache.misses} "
        f"(cache absorbed {cache.hits} repeat builds across tree nodes)"
        f"\nresults bit-identical to the looped path"
    )
    ctx.report(table_text + summary, name="e19_engine_batching_local")

    # Local refits at every node; the cache must keep kernels at one per
    # attribute no matter how many nodes re-reconstruct.
    assert metrics["kernel_misses"] == N_ATTRIBUTES
    return metrics


def test_e19_byclass_engine_batching(benchmark):
    run_experiment(benchmark, "e19_byclass")


def test_e19_local_engine_batching(benchmark):
    run_experiment(benchmark, "e19_local")
