"""E11 — Ablation: training-set size (paper methodology check).

The paper trains on 100 000 records; our default harness uses 10 000.
This bench sweeps the size and shows the shape conclusions are stable:
ByClass tracks Original at every size, with the gap narrowing as
reconstruction gets more data.
"""

from __future__ import annotations

from _common import experiment, run_experiment

from repro.experiments import (
    ClassificationConfig,
    format_table,
    run_training_size_sweep,
)

SIZES = (1_000, 3_000, 10_000, 30_000)


@experiment(
    "e11",
    title="Training-set size ablation, Fn3 ByClass vs Original",
    tags=("classification", "ablation", "paper"),
    seed=1100,
)
def run_e11(ctx):
    config = ClassificationConfig(
        functions=(3,),
        noise="uniform",
        privacy=1.0,
        n_test=ctx.scaled(3_000),
        seed=ctx.seed,
    )
    sizes = tuple(ctx.scaled(s) for s in SIZES)
    ctx.record(
        function=3,
        noise=config.noise,
        privacy=config.privacy,
        n_test=config.n_test,
        sizes=",".join(str(s) for s in sizes),
    )
    rows = run_training_size_sweep(config, sizes, strategy="byclass")

    acc = {(r.n_train, r.strategy): r.accuracy for r in rows}
    table_rows = [
        (
            n,
            f"{100 * acc[(n, 'original')]:.1f}",
            f"{100 * acc[(n, 'byclass')]:.1f}",
        )
        for n in sizes
    ]
    table = format_table(
        ("n_train", "original %", "byclass %"),
        table_rows,
        title="E11: Fn3 accuracy vs training size (100% privacy, uniform)",
    )
    ctx.report(table, name="e11_training_size")

    metrics = {}
    for base_size, n in zip(SIZES, sizes):
        metrics[f"original_n{base_size}"] = float(acc[(n, "original")])
        metrics[f"byclass_n{base_size}"] = float(acc[(n, "byclass")])
    # byclass benefits from data: largest size beats smallest clearly
    assert acc[(sizes[-1], "byclass")] > acc[(sizes[0], "byclass")]
    # original is roughly size-insensitive past a few thousand records
    assert abs(acc[(sizes[-1], "original")] - acc[(sizes[-2], "original")]) < 0.05
    return metrics


def test_e11_training_size(benchmark):
    run_experiment(benchmark, "e11")
